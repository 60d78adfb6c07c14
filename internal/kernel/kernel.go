// Package kernel is Norman's in-kernel control plane (§4.2/§4.4): the
// process and user tables that give interposition its process view, the
// connection table that allocates per-connection rings and programs NIC
// steering, command-name interning for NIC-side cmd-owner matching, and the
// ARP cache.
//
// The kernel never touches the dataplane: its job is to configure whatever
// interposition point the architecture provides. Blocking I/O on top of
// kernel bypass (§4.3) is the architecture's: the KOPI dataplane wakes a
// blocked thread from its notification queue (internal/arch). That is the
// paper's division of labor.
package kernel

import (
	"errors"
	"fmt"
	"sort"

	"norman/internal/mem"
	"norman/internal/packet"
	"norman/internal/sim"
)

// Errors.
var (
	ErrNoSuchProcess = errors.New("kernel: no such process")
	ErrNoSuchConn    = errors.New("kernel: no such connection")
	ErrPortInUse     = errors.New("kernel: local port in use")
)

// User is a system user.
type User struct {
	UID  uint32
	Name string
}

// Process is a running process with its owner and command name. The process
// table is exactly what off-host interposition layers lack access to.
type Process struct {
	PID     uint32
	UID     uint32
	Command string
	Queue   *mem.NotifyQueue // shared notification queue (§4.3)

	conns map[uint64]*ConnInfo
}

// ConnInfo is one entry of the kernel connection table — the join between
// flows and processes that netstat, iptables owner matching and tcpdump
// attribution all need.
type ConnInfo struct {
	ID      uint64
	PID     uint32
	UID     uint32
	Command string
	Flow    packet.FlowKey
	Opened  sim.Time
}

// Kernel is the control plane.
type Kernel struct {
	eng *sim.Engine

	users   map[uint32]*User
	procs   map[uint32]*Process
	nextPID uint32

	conns    map[uint64]*ConnInfo
	byFlow   map[packet.FlowKey]*ConnInfo
	nextConn uint64

	cmdIDs  map[string]uint32
	nextCmd uint32

	// tenants maps a uid to its isolation tenant (AssignTenant). UIDs with
	// no explicit assignment are their own tenant — every user is isolated
	// from every other by default, and grouping is an administrative act.
	tenants map[uint32]uint32

	arp *ARPCache
}

// New creates a kernel with an empty process table and user 0 (root).
func New(eng *sim.Engine) *Kernel {
	k := &Kernel{
		eng:     eng,
		users:   map[uint32]*User{0: {UID: 0, Name: "root"}},
		procs:   map[uint32]*Process{},
		conns:   map[uint64]*ConnInfo{},
		byFlow:  map[packet.FlowKey]*ConnInfo{},
		cmdIDs:  map[string]uint32{},
		tenants: map[uint32]uint32{},
		arp:     NewARPCache(),
	}
	return k
}

// AddUser registers a user.
func (k *Kernel) AddUser(uid uint32, name string) *User {
	u := &User{UID: uid, Name: name}
	k.users[uid] = u
	return u
}

// User looks up a user by uid.
func (k *Kernel) User(uid uint32) (*User, bool) {
	u, ok := k.users[uid]
	return u, ok
}

// Spawn creates a process owned by uid running command.
func (k *Kernel) Spawn(uid uint32, command string) *Process {
	k.nextPID++
	p := &Process{
		PID:     k.nextPID + 1000, // PIDs start above system range
		UID:     uid,
		Command: command,
		Queue:   mem.NewNotifyQueue(4096),
		conns:   map[uint64]*ConnInfo{},
	}
	k.procs[p.PID] = p
	return p
}

// Process looks up a process by pid.
func (k *Kernel) Process(pid uint32) (*Process, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// Processes returns all processes sorted by pid.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, 0, len(k.procs))
	for _, p := range k.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// CommandID interns a command name to a small id for NIC-side matching.
func (k *Kernel) CommandID(command string) uint32 {
	if id, ok := k.cmdIDs[command]; ok {
		return id
	}
	k.nextCmd++
	k.cmdIDs[command] = k.nextCmd
	return k.nextCmd
}

// RegisterConn records a new connection for a process and returns its table
// entry with a fresh connection id. The caller (architecture) performs the
// NIC-side allocation.
func (k *Kernel) RegisterConn(p *Process, flow packet.FlowKey) (*ConnInfo, error) {
	if _, ok := k.procs[p.PID]; !ok {
		return nil, ErrNoSuchProcess
	}
	if existing, ok := k.byFlow[flow]; ok {
		return nil, fmt.Errorf("%w: %s held by pid %d", ErrPortInUse, flow, existing.PID)
	}
	k.nextConn++
	ci := &ConnInfo{
		ID:      k.nextConn,
		PID:     p.PID,
		UID:     p.UID,
		Command: p.Command,
		Flow:    flow,
		Opened:  k.eng.Now(),
	}
	k.conns[ci.ID] = ci
	k.byFlow[flow] = ci
	p.conns[ci.ID] = ci
	return ci, nil
}

// RestoreConn re-inserts a connection under its original id — the crash
// reconciler's repair for a kernel table row lost to NIC/kernel divergence.
// The process must still exist (in-sim crashes kill the control plane, not
// applications); id collisions and flow conflicts are rejected.
func (k *Kernel) RestoreConn(id uint64, pid uint32, flow packet.FlowKey, opened sim.Time) (*ConnInfo, error) {
	p, ok := k.procs[pid]
	if !ok {
		return nil, ErrNoSuchProcess
	}
	if _, ok := k.conns[id]; ok {
		return nil, fmt.Errorf("kernel: conn %d already present", id)
	}
	if existing, ok := k.byFlow[flow]; ok {
		return nil, fmt.Errorf("%w: %s held by pid %d", ErrPortInUse, flow, existing.PID)
	}
	ci := &ConnInfo{
		ID:      id,
		PID:     p.PID,
		UID:     p.UID,
		Command: p.Command,
		Flow:    flow,
		Opened:  opened,
	}
	k.conns[id] = ci
	k.byFlow[flow] = ci
	p.conns[id] = ci
	if id > k.nextConn {
		k.nextConn = id
	}
	return ci, nil
}

// UnregisterConn removes a connection from the table.
func (k *Kernel) UnregisterConn(id uint64) error {
	ci, ok := k.conns[id]
	if !ok {
		return ErrNoSuchConn
	}
	delete(k.conns, id)
	delete(k.byFlow, ci.Flow)
	if p, ok := k.procs[ci.PID]; ok {
		delete(p.conns, id)
	}
	return nil
}

// Conn looks up a connection by id.
func (k *Kernel) Conn(id uint64) (*ConnInfo, bool) {
	c, ok := k.conns[id]
	return c, ok
}

// ConnByFlow looks up a connection by its flow key.
func (k *Kernel) ConnByFlow(flow packet.FlowKey) (*ConnInfo, bool) {
	c, ok := k.byFlow[flow]
	return c, ok
}

// Conns returns all connections sorted by id — the netstat view, already
// joined with process attribution.
func (k *Kernel) Conns() []*ConnInfo {
	out := make([]*ConnInfo, 0, len(k.conns))
	for _, c := range k.conns {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AssignTenant groups a uid into an isolation tenant. The NIC's weighted
// scheduler, the DDIO partition and the overload governor's per-tenant
// budgets all key on this id. Tenant 0 clears the assignment (the uid
// becomes its own tenant again).
func (k *Kernel) AssignTenant(uid, tenant uint32) {
	if tenant == 0 {
		delete(k.tenants, uid)
		return
	}
	k.tenants[uid] = tenant
}

// TenantOf resolves a uid's isolation tenant: the explicit assignment if one
// exists, the uid itself otherwise.
func (k *Kernel) TenantOf(uid uint32) uint32 {
	if t, ok := k.tenants[uid]; ok {
		return t
	}
	return uid
}

// Meta builds the trusted packet metadata the kernel programs into the NIC
// for a connection (§4.3: connection setup goes through the kernel).
func (k *Kernel) Meta(ci *ConnInfo) packet.Meta {
	return packet.Meta{
		UID:         ci.UID,
		PID:         ci.PID,
		Command:     ci.Command,
		CommandID:   k.CommandID(ci.Command),
		ConnID:      ci.ID,
		Tenant:      k.TenantOf(ci.UID),
		TrustedMeta: true,
	}
}

// ARP returns the kernel ARP cache.
func (k *Kernel) ARP() *ARPCache { return k.arp }
