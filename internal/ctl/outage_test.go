package ctl

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"norman"
	"norman/internal/recovery"
)

// TestDialWithRetriesThroughOutage: the daemon comes up only after the
// client's first attempts fail — the retry/backoff schedule must ride the
// outage out and connect, rather than give up on the first refused dial.
func TestDialWithRetriesThroughOutage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.sock")

	srv := NewServer(norman.New(norman.KOPI))
	go func() {
		time.Sleep(150 * time.Millisecond)
		_ = srv.Listen(path)
	}()
	t.Cleanup(func() { _ = srv.Close() })

	c, err := DialWith(path, DialConfig{
		Timeout:     time.Second,
		Retries:     6,
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial through outage: %v", err)
	}
	defer c.Close()
	var st StatusData
	if err := c.Call(OpStatus, nil, &st); err != nil {
		t.Fatal(err)
	}
}

// TestDialGivesUpBounded: with no daemon ever appearing, DialWith fails after
// its retry budget instead of hanging, and the error says how hard it tried.
func TestDialGivesUpBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.sock")
	start := time.Now()
	_, err := DialWith(path, DialConfig{
		Timeout:     200 * time.Millisecond,
		Retries:     2,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("dial to a dead socket must fail")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("give-up took %v", elapsed)
	}
}

// TestCallTimesOutOnUnresponsiveServer: a listener that accepts but never
// answers must cost the client RequestTimeout, not a wedged tool.
func TestCallTimesOutOnUnresponsiveServer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mute.sock")
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Read and drop everything; never reply.
			go func(c net.Conn) {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	c, err := DialWith(path, DialConfig{RequestTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	err = c.Call(OpStatus, nil, nil)
	if err == nil {
		t.Fatal("call to a mute server must fail")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want a timeout error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// TestUnreachableError: a dead socket surfaces as the typed Unreachable
// error carrying the address, so every tool can print the one-line
// "normand unreachable at <addr>" diagnosis.
func TestUnreachableError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gone.sock")
	_, err := DialWith(path, DialConfig{
		Timeout: 100 * time.Millisecond, Retries: 1,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 10 * time.Millisecond,
	})
	var u *Unreachable
	if !errors.As(err, &u) {
		t.Fatalf("want *Unreachable, got %T: %v", err, err)
	}
	if u.Addr != path || u.Attempts != 2 {
		t.Fatalf("Unreachable = %+v", u)
	}
}

// dyingListener accepts connections and immediately closes them — the
// observable behavior of a daemon that dies right after accept.
func dyingListener(t *testing.T, path string) net.Listener {
	t.Helper()
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	return ln
}

// TestCallReconnectsAfterDaemonRestart: the client's established connection
// dies (daemon restarted underneath the tool); an idempotent call must
// transparently redial the socket and retry once instead of failing.
func TestCallReconnectsAfterDaemonRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "restart.sock")
	ln := dyingListener(t, path)

	c, err := DialWith(path, DialConfig{
		Timeout: time.Second, Retries: 4,
		BackoffBase: 20 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The daemon "restarts": the dying incarnation goes away and a real
	// server takes over the same socket.
	ln.Close()
	srv := NewServer(norman.New(norman.KOPI))
	go func() { _ = srv.Listen(path) }()
	t.Cleanup(func() { _ = srv.Close() })

	var st StatusData
	if err := c.Call(OpStatus, nil, &st); err != nil {
		t.Fatalf("idempotent call must survive the restart: %v", err)
	}
	if st.Architecture != "kopi" {
		t.Fatalf("status = %+v", st)
	}
}

// TestCallDoesNotRetryMutations: the same broken-connection scenario on a
// mutating op must surface the error — the client cannot know whether the
// dead daemon applied the mutation, so replaying it is not safe.
func TestCallDoesNotRetryMutations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mut.sock")
	ln := dyingListener(t, path)

	c, err := DialWith(path, DialConfig{
		Timeout: time.Second, Retries: 4,
		BackoffBase: 20 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ln.Close()
	srv := NewServer(norman.New(norman.KOPI))
	go func() { _ = srv.Listen(path) }()
	t.Cleanup(func() { _ = srv.Close() })

	err = c.Call(OpIPTablesAdd, recovery.RuleRecord{Hook: "OUTPUT", Rule: recovery.Rule{Action: "drop"}}, nil)
	if err == nil {
		t.Fatal("mutation on a broken connection must not be silently retried")
	}
	if !errors.Is(err, errBrokenConn) {
		t.Fatalf("want the broken-connection error surfaced, got %v", err)
	}
}

// TestRecoveryStatusOp: the recovery.status op reports the journal and the
// last reconciliation over the wire.
func TestRecoveryStatusOp(t *testing.T) {
	sys := norman.New(norman.KOPI)
	sys.EnableRecovery()
	srv := NewServer(sys)
	path := filepath.Join(t.TempDir(), "rec.sock")
	go func() { _ = srv.Listen(path) }()
	t.Cleanup(func() { _ = srv.Close() })

	c, err := DialWith(path, DialConfig{Timeout: time.Second, Retries: 4,
		BackoffBase: 20 * time.Millisecond, BackoffMax: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var data recovery.Status
	if err := c.Call(OpRecovery, nil, &data); err != nil {
		t.Fatal(err)
	}
	if data.Down || data.Last != nil {
		t.Fatalf("fresh daemon recovery status = %+v", data)
	}
	if err := c.Call(OpIPTablesAdd, recovery.RuleRecord{Hook: "OUTPUT", Rule: recovery.Rule{DstPort: 9999, Action: "drop"}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(ctlOpRecoveryRefresh, nil, &data); err == nil {
		t.Fatal("unknown op must error")
	}
	if err := c.Call(OpRecovery, nil, &data); err != nil {
		t.Fatal(err)
	}
	if data.JournalEntries == 0 {
		t.Fatalf("journaled mutation must show up: %+v", data)
	}
}

const ctlOpRecoveryRefresh = "recovery.refresh" // deliberately unknown

// TestListenReturnsNilOnClose: a graceful shutdown is not an error — normand
// distinguishes "operator stopped me" (exit 0) from a listener failure
// (exit nonzero).
func TestListenReturnsNilOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "close.sock")
	srv := NewServer(norman.New(norman.KOPI))

	done := make(chan error, 1)
	go func() { done <- srv.Listen(path) }()

	// Wait for the socket to exist, then close gracefully.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("socket never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful close must return nil, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Listen did not return after Close")
	}
}
