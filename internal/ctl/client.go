package ctl

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"norman/internal/faults"
)

// DialConfig bounds how long a tool will wait on the control socket. The
// zero value means defaults; normand restarting or wedging should cost a
// tool seconds, not a hung terminal.
type DialConfig struct {
	// Timeout bounds one connect attempt (default 2s).
	Timeout time.Duration
	// Retries is how many additional connect attempts follow a failure
	// (default 3; negative = none). Attempts are spaced by capped
	// exponential backoff with deterministic jitter.
	Retries int
	// BackoffBase and BackoffMax shape the retry schedule
	// (defaults 50ms base, 1s cap).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// RequestTimeout bounds one Call round-trip (default 10s).
	RequestTimeout time.Duration
}

func (c DialConfig) withDefaults() DialConfig {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 3
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	return c
}

// Unreachable reports that no connection to the daemon could be
// established after the full retry schedule. Tools errors.As against it to
// print the canonical "normand unreachable at <addr>" line and exit
// non-zero instead of dumping a raw dial error.
type Unreachable struct {
	Addr     string
	Attempts int
	Err      error
}

func (u *Unreachable) Error() string {
	return fmt.Sprintf("ctl: dialing %s after %d attempts (is normand running?): %v",
		u.Addr, u.Attempts, u.Err)
}

// Unwrap exposes the last dial error for errors.Is chains.
func (u *Unreachable) Unwrap() error { return u.Err }

// errBrokenConn marks transport failures (write/read on an established
// connection) as distinct from daemon-reported errors; only these justify a
// transparent reconnect-and-retry, and only for idempotent ops.
var errBrokenConn = errors.New("ctl: connection broken")

// Client is a tool-side connection to normand.
type Client struct {
	conn net.Conn
	rd   *bufio.Reader
	cfg  DialConfig
	path string
}

// Dial connects to the daemon's control socket with default timeouts.
func Dial(path string) (*Client, error) {
	return DialWith(path, DialConfig{})
}

// DialWith connects with explicit timeout/backoff behavior. A dead or
// missing socket fails each attempt fast; a present-but-unresponsive one
// fails at cfg.Timeout; the schedule between attempts is
// faults.Backoff(base, max, attempt).
func DialWith(path string, cfg DialConfig) (*Client, error) {
	if path == "" {
		path = DefaultSocket
	}
	cfg = cfg.withDefaults()
	var lastErr error
	for attempt := 0; attempt <= cfg.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(faults.Backoff(cfg.BackoffBase, cfg.BackoffMax, attempt-1))
		}
		conn, err := net.DialTimeout("unix", path, cfg.Timeout)
		if err == nil {
			return &Client{conn: conn, rd: bufio.NewReaderSize(conn, 1<<20), cfg: cfg, path: path}, nil
		}
		lastErr = err
	}
	return nil, &Unreachable{Addr: path, Attempts: cfg.Retries + 1, Err: lastErr}
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Call performs one request and decodes the response payload into out
// (which may be nil). The round-trip is bounded by the client's
// RequestTimeout; a wedged daemon surfaces as a deadline error instead of a
// hang. If the established connection breaks mid-call — the daemon
// restarted under the tool — and the op is idempotent, the client
// transparently redials (the usual backoff schedule) and retries once.
// Daemon-reported errors are never retried.
func (c *Client) Call(op string, args, out interface{}) error {
	err := c.roundTrip(op, args, out)
	if err != nil && errors.Is(err, errBrokenConn) && IdempotentOp(op) {
		if rerr := c.reconnect(); rerr == nil {
			return c.roundTrip(op, args, out)
		}
	}
	return err
}

// reconnect replaces the broken transport with a fresh dial to the same
// socket, reusing the client's dial configuration (and its backoff).
func (c *Client) reconnect() error {
	fresh, err := DialWith(c.path, c.cfg)
	if err != nil {
		return err
	}
	c.conn.Close()
	c.conn, c.rd = fresh.conn, fresh.rd
	return nil
}

// roundTrip is one request/response exchange on the current connection.
// Transport failures are wrapped with errBrokenConn so Call can distinguish
// a dead socket from a live daemon saying no.
func (c *Client) roundTrip(op string, args, out interface{}) error {
	req, err := Marshal(op, args)
	if err != nil {
		return err
	}
	req = append(req, '\n')
	if c.cfg.RequestTimeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.cfg.RequestTimeout)); err != nil {
			return fmt.Errorf("ctl: arming deadline: %w", err)
		}
		defer c.conn.SetDeadline(time.Time{})
	}
	if _, err := c.conn.Write(req); err != nil {
		return fmt.Errorf("ctl: write: %w: %w", errBrokenConn, err)
	}
	line, err := c.rd.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("ctl: read: %w: %w", errBrokenConn, err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return fmt.Errorf("ctl: decoding response: %w", err)
	}
	if !resp.OK {
		return fmt.Errorf("%s", resp.Error)
	}
	if out != nil && resp.Data != nil {
		if err := json.Unmarshal(resp.Data, out); err != nil {
			return fmt.Errorf("ctl: decoding payload: %w", err)
		}
	}
	return nil
}
