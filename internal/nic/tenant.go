package nic

import (
	"sort"

	"norman/internal/sim"
)

// This file is the NIC's tenant performance-isolation layer (OSMOSIS-shaped):
// weighted deficit-round-robin scheduling of the two serial NIC-internal
// resources — the overlay pipeline and the PCIe DMA engine — plus per-tenant
// ingress FIFO accounting. Admission control (the overload governor) decides
// *whether* a tenant gets resources; this layer decides *in what order* the
// resources serve the tenants that were admitted, which is what keeps an
// adversarial neighbor's backlog out of a latency-sensitive tenant's way.
//
// The scheduler is strictly opt-in: with no scheduler installed every request
// acquires its server directly, preserving the historical FIFO dataplane
// byte-for-byte (E1–E12 tables do not move).

// A queued request for a scheduled resource is the frame's own datapath job
// (job.go): per-tenant queues are rings of job pointers, so steady-state
// scheduling allocates nothing. The job's stage says which continuation the
// grant resumes; est is the *estimated* server occupancy used for deficit
// accounting at selection time — the actual cost (which may include a DDIO
// descriptor miss the scheduler cannot predict) is billed as a correction
// when the request is served.

// tenantID attributes a request: the steered connection's tenant, or whatever
// the packet already carries (0, the unattributed tenant, for unsteered
// ingress).
func (j *job) tenantID() uint32 {
	if j.c != nil {
		return j.c.Meta.Tenant
	}
	return j.p.Meta.Tenant
}

// tenantQ is one tenant's state on one scheduled resource: a request ring and
// the DRR deficit. Deficits are int64 nanoseconds of server time and reset
// when the queue drains — an idle tenant neither banks credit nor carries
// debt, which is what makes the scheduler work-conserving.
type tenantQ struct {
	tenant  uint32
	weight  int
	quantum int64 // per-round deficit refill, ns of server time
	deficit int64

	q      []*job
	head   int
	n      int
	queued bool // on the active ring

	grants uint64       // requests served
	work   sim.Duration // server occupancy granted
	wait   sim.Duration // time requests spent queued
}

func (q *tenantQ) push(g *job) {
	if q.n == len(q.q) {
		grown := make([]*job, max(8, 2*len(q.q)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.q[(q.head+i)%len(q.q)]
		}
		q.q = grown
		q.head = 0
	}
	q.q[(q.head+q.n)%len(q.q)] = g
	q.n++
}

func (q *tenantQ) pop() *job {
	g := q.q[q.head]
	q.q[q.head] = nil
	q.head = (q.head + 1) % len(q.q)
	q.n--
	return g
}

// TenantDRR schedules one serial sim.Server across tenants by deficit round
// robin — the same discipline as the qos egress DRR, rebuilt over job rings
// so the per-packet hot path (Request → select → serve) allocates nothing.
// Each round a backlogged tenant's deficit grows by weight × the cost of one
// full frame on this resource; it is served while the deficit covers the head
// grant's estimate. Overlay cycles and miss penalties the estimate missed are
// billed post-hoc with Charge, so a tenant that runs expensive programs pays
// for them in its own schedule, not its neighbors'.
type TenantDRR struct {
	nic *NIC
	srv *sim.Server

	qs    map[uint32]*tenantQ
	order []uint32 // sorted tenant ids, for deterministic accessors

	active     []uint32 // round-robin ring of backlogged tenant ids
	activeHead int
	activeN    int

	backlog int
	pumping bool
	pumpFn  func()

	base      sim.Duration // one weight unit's per-round refill
	defWeight int

	// cost returns a request's actual server occupancy (it may touch the LLC,
	// so it runs exactly once, at serve time). deliver resumes the datapath
	// once the server slot ending at done is owned; a job it does not arm
	// again is freed.
	cost    func(g *job) sim.Duration
	deliver func(g *job, done sim.Time)
}

func newTenantDRR(n *NIC, srv *sim.Server, weights map[uint32]int, base sim.Duration,
	cost func(*job) sim.Duration, deliver func(*job, sim.Time)) *TenantDRR {
	if base < 1 {
		base = 1
	}
	d := &TenantDRR{
		nic:       n,
		srv:       srv,
		qs:        make(map[uint32]*tenantQ, len(weights)),
		base:      base,
		defWeight: 1,
		cost:      cost,
		deliver:   deliver,
	}
	d.pumpFn = d.pump
	for id, w := range weights { // addQueue keeps order sorted whatever the map's order
		d.addQueue(id, w)
	}
	return d
}

func (d *TenantDRR) addQueue(tenant uint32, weight int) *tenantQ {
	if weight < 1 {
		weight = 1
	}
	q := &tenantQ{tenant: tenant, weight: weight, quantum: int64(d.base) * int64(weight)}
	d.qs[tenant] = q
	i := sort.Search(len(d.order), func(i int) bool { return d.order[i] >= tenant })
	d.order = append(d.order, 0)
	copy(d.order[i+1:], d.order[i:])
	d.order[i] = tenant
	return q
}

// queue returns (creating with the default weight if needed) a tenant's state.
func (d *TenantDRR) queue(tenant uint32) *tenantQ {
	if q, ok := d.qs[tenant]; ok {
		return q
	}
	return d.addQueue(tenant, d.defWeight)
}

// Request submits one resource request. When the resource is idle and no one
// is backlogged the grant is served immediately — an uncontended tenant sees
// exactly the unscheduled latency, and (as in classic DRR) uncontended serves
// do not touch deficits. Otherwise the request queues on its tenant ring and
// the round-robin pump orders it against the other tenants' backlogs. The
// caller settles g: a queued request is armed (the ring holds it), one served
// on the spot is whatever deliver left it.
func (d *TenantDRR) Request(g *job) {
	now := d.nic.eng.Now()
	g.enq = now
	q := d.queue(g.tenantID())
	if d.backlog == 0 && !d.srv.FreeAt().After(now) {
		d.serve(q, g, now)
		return
	}
	g.armed = true
	q.push(g)
	d.backlog++
	if !q.queued {
		q.queued = true
		d.activePush(q.tenant)
	}
	d.schedule(d.srv.FreeAt())
}

// Charge bills extra server-adjacent work (overlay cycles, miss penalties) to
// a tenant's deficit. It only bites while the tenant is backlogged — deficits
// reset when a queue drains — which is the right scope: uncontended work
// delays nobody.
func (d *TenantDRR) Charge(tenant uint32, dur sim.Duration) {
	if dur <= 0 {
		return
	}
	d.queue(tenant).deficit -= int64(dur)
}

// serve grants g the server now and resumes its datapath, returning what the
// grant actually cost and when it ends.
func (d *TenantDRR) serve(q *tenantQ, g *job, now sim.Time) (sim.Duration, sim.Time) {
	cost := d.cost(g)
	_, done := d.srv.Acquire(now, cost)
	q.grants++
	q.work += cost
	q.wait += now.Sub(g.enq)
	d.deliver(g, done)
	return cost, done
}

// schedule keeps exactly one pending pump event against the server.
func (d *TenantDRR) schedule(at sim.Time) {
	if d.pumping {
		return
	}
	d.pumping = true
	if now := d.nic.eng.Now(); at.Before(now) {
		at = now
	}
	d.nic.eng.At(at, d.pumpFn)
}

func (d *TenantDRR) pump() {
	d.pumping = false
	now := d.nic.eng.Now()
	if free := d.srv.FreeAt(); free.After(now) {
		// Someone (a direct serve, or a non-tenant user of the server)
		// occupied the resource since this pump was scheduled; try again
		// when it frees.
		if d.backlog > 0 {
			d.schedule(free)
		}
		return
	}
	g, q, ok := d.next()
	if !ok {
		return
	}
	g.armed = false
	cost, done := d.serve(q, g, now)
	// True-up: the deficit was charged the estimate at selection; bill the
	// difference so tenants pay actual occupancy (DDIO misses included).
	q.deficit -= int64(cost) - int64(g.est)
	d.nic.settle(g)
	if d.backlog > 0 {
		d.schedule(done)
	}
}

// next runs the DRR selection: visit the active ring, refill-and-rotate while
// the head tenant's deficit cannot cover its head grant, and pop the first
// affordable grant. Queues that drain leave the round with their deficit
// reset.
func (d *TenantDRR) next() (*job, *tenantQ, bool) {
	for d.activeN > 0 {
		q := d.qs[d.active[d.activeHead]]
		if q.n == 0 {
			q.queued = false
			q.deficit = 0
			d.activePop()
			continue
		}
		g := q.q[q.head]
		if q.deficit < int64(g.est) {
			q.deficit += q.quantum
			d.activeRotate()
			continue
		}
		q.pop()
		d.backlog--
		q.deficit -= int64(g.est)
		if q.n == 0 {
			q.queued = false
			q.deficit = 0
			d.activePop()
		}
		return g, q, true
	}
	return nil, nil, false
}

func (d *TenantDRR) activePush(id uint32) {
	if d.activeN == len(d.active) {
		grown := make([]uint32, max(8, 2*len(d.active)))
		for i := 0; i < d.activeN; i++ {
			grown[i] = d.active[(d.activeHead+i)%len(d.active)]
		}
		d.active = grown
		d.activeHead = 0
	}
	d.active[(d.activeHead+d.activeN)%len(d.active)] = id
	d.activeN++
}

func (d *TenantDRR) activePop() uint32 {
	id := d.active[d.activeHead]
	d.activeHead = (d.activeHead + 1) % len(d.active)
	d.activeN--
	return id
}

func (d *TenantDRR) activeRotate() { d.activePush(d.activePop()) }

// Backlog returns the total queued grants across tenants.
func (d *TenantDRR) Backlog() int { return d.backlog }

// tenantRx is one tenant's share of the ingress FIFO, plus the drops charged
// to it by reason (ledger.go). Partitioning the FIFO is what stops a
// backlogged neighbor's frames from camping every slot: each tenant overflows
// its own share and the MAC drops *its* excess, not the victim's.
type tenantRx struct {
	inflight int
	window   int
	drops    [NumReasons]uint64
}

// TenantSched bundles the two per-resource schedulers and the per-tenant
// ingress FIFO accounting. Install with NIC.SetTenantScheduler before traffic
// flows (it is a control-plane configuration, like steering or programs).
type TenantSched struct {
	n    *NIC
	Pipe *TenantDRR
	DMA  *TenantDRR

	weights map[uint32]int
	total   int

	rx      map[uint32]*tenantRx
	rxOrder []uint32
}

func newTenantSched(n *NIC, weights map[uint32]int) *TenantSched {
	s := &TenantSched{
		n:       n,
		weights: make(map[uint32]int, len(weights)),
		rx:      make(map[uint32]*tenantRx, len(weights)),
	}
	for id, w := range weights {
		s.weights[id] = max(w, 1)
		s.total += max(w, 1)
	}
	// Quanta: one weight unit buys one full frame per round on each resource.
	full := n.price(1514)
	s.Pipe = newTenantDRR(n, n.pipeline, s.weights, full.pipe, s.pipeCost, s.pipeGrant)
	s.DMA = newTenantDRR(n, n.dma, s.weights, full.dma, s.dmaCostOf, s.dmaGrant)
	for id := range s.weights { // shares need the total; rxQueue keeps rxOrder sorted
		s.rxQueue(id)
	}
	return s
}

// rxShare sizes a tenant's FIFO share from the current FIFO depth:
// weight-proportional (a quarter of one weight unit for a tenant without a
// weight) with a floor of 8, so even the lightest tenant can absorb a small
// burst.
func (s *TenantSched) rxShare(tenant uint32) int {
	depth := s.n.rxWindow
	win := depth / (4 * max(1, s.total))
	if w, ok := s.weights[tenant]; ok {
		win = depth * w / s.total
	}
	return max(8, win)
}

func (s *TenantSched) rxQueue(tenant uint32) *tenantRx {
	if r, ok := s.rx[tenant]; ok {
		return r
	}
	r := &tenantRx{window: s.rxShare(tenant)}
	s.rx[tenant] = r
	i := sort.Search(len(s.rxOrder), func(i int) bool { return s.rxOrder[i] >= tenant })
	s.rxOrder = append(s.rxOrder, 0)
	copy(s.rxOrder[i+1:], s.rxOrder[i:])
	s.rxOrder[i] = tenant
	return r
}

// pipeCost: the pipeline's occupancy is frame-length-determined, so the
// estimate is exact.
func (s *TenantSched) pipeCost(g *job) sim.Duration { return g.est }

// dmaCostOf computes the DMA engine occupancy at serve time — this is where
// the descriptor's DDIO fate (per-tenant partition included) is decided.
func (s *TenantSched) dmaCostOf(g *job) sim.Duration {
	if g.stage == stTxFetch {
		return s.n.dmaCost(g.c, g.c.TX, g.index, g.frame, false)
	}
	return s.n.dmaCost(g.c, g.c.RX, g.index, g.frame, true)
}

// dmaGrant resumes the datapath after a DMA grant: TX fetches continue the
// connection's drain chain and deliver the frame to the egress pipeline after
// the PCIe flight; RX stores become host-visible after the same flight.
func (s *TenantSched) dmaGrant(g *job, done sim.Time) {
	if g.stage == stTxFetch {
		s.n.txFetched(g, done)
		return
	}
	g.arm(stRxVisible, done.Add(s.n.model.DMALatency))
}

// pipeGrant resumes the datapath after a pipeline grant: the same pipeline
// step the unscheduled dataplane runs when it acquires the server directly.
func (s *TenantSched) pipeGrant(g *job, done sim.Time) {
	if g.stage == stTxPipe {
		s.n.txPipe(g, done)
		return
	}
	s.n.rxPipe(g, done)
}

// rxAdmit charges one ingress FIFO slot to a tenant; false means the tenant's
// share is full and the frame must be dropped (an RxFifo drop).
func (s *TenantSched) rxAdmit(tenant uint32) bool {
	r := s.rxQueue(tenant)
	if r.inflight >= r.window {
		return false
	}
	r.inflight++
	return true
}

func (s *TenantSched) rxLeave(tenant uint32) {
	r := s.rx[tenant]
	if r == nil || r.inflight == 0 {
		panic("nic: tenant FIFO share released but not held")
	}
	r.inflight--
}

// TenantSchedStats is one tenant's scheduler accounting across both scheduled
// resources plus its ingress FIFO share.
type TenantSchedStats struct {
	Tenant      uint32
	Weight      int
	PipeGrants  uint64
	DMAGrants   uint64
	PipeWork    sim.Duration
	DMAWork     sim.Duration
	PipeWait    sim.Duration
	DMAWait     sim.Duration
	RxFifoDrops uint64
	RxInflight  int
	RxWindow    int
}

func (s *TenantSched) statsFor(tenant uint32) TenantSchedStats {
	st := TenantSchedStats{Tenant: tenant, Weight: s.weights[tenant]}
	if st.Weight == 0 {
		st.Weight = 1
	}
	if q, ok := s.Pipe.qs[tenant]; ok {
		st.PipeGrants, st.PipeWork, st.PipeWait = q.grants, q.work, q.wait
	}
	if q, ok := s.DMA.qs[tenant]; ok {
		st.DMAGrants, st.DMAWork, st.DMAWait = q.grants, q.work, q.wait
	}
	if r, ok := s.rx[tenant]; ok {
		st.RxFifoDrops, st.RxInflight, st.RxWindow = r.drops[RxFifo], r.inflight, r.window
	}
	return st
}

// Stats returns per-tenant scheduler accounting in ascending tenant order —
// the union of every tenant either scheduler or the FIFO accountant has seen.
// Sorted iteration keeps metrics dumps and ctl output deterministic.
func (s *TenantSched) Stats() []TenantSchedStats {
	seen := make(map[uint32]bool, len(s.rxOrder))
	ids := make([]uint32, 0, len(s.rxOrder))
	add := func(list []uint32) {
		for _, id := range list {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	add(s.rxOrder)
	add(s.Pipe.order)
	add(s.DMA.order)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]TenantSchedStats, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.statsFor(id))
	}
	return out
}

// SetTenantScheduler installs weighted DRR scheduling of the NIC pipeline and
// DMA engine across tenants (weights sum to the total share; higher = more).
// nil or empty weights uninstall the scheduler, restoring the historical FIFO
// dataplane. Install at configuration time, before traffic flows.
func (n *NIC) SetTenantScheduler(weights map[uint32]int) {
	if len(weights) == 0 {
		n.tsched = nil
		return
	}
	n.tsched = newTenantSched(n, weights)
}

// TenantScheduler returns the installed tenant scheduler, nil when the
// dataplane is unscheduled.
func (n *NIC) TenantScheduler() *TenantSched { return n.tsched }

// Weights returns a copy of the scheduler's tenant weights (the flow cache
// partitions its capacity by the same shares).
func (s *TenantSched) Weights() map[uint32]int {
	out := make(map[uint32]int, len(s.weights))
	for id, w := range s.weights {
		out[id] = w
	}
	return out
}

// TenantDrops returns the frames dropped under one reason on one tenant's
// account (0 when no scheduler is installed — unscheduled drops are global).
func (n *NIC) TenantDrops(tenant uint32, r Reason) uint64 {
	if n.tsched != nil && n.tsched.rx[tenant] != nil {
		return n.tsched.rx[tenant].drops[r]
	}
	return 0
}

// TenantFifoDrops returns ingress frames dropped at one tenant's FIFO share.
func (n *NIC) TenantFifoDrops(tenant uint32) uint64 { return n.TenantDrops(tenant, RxFifo) }

// TenantRxOccupancy sums RX-ring pressure over one tenant's connections:
// occupied and capacity descriptors plus rings at or above their high
// watermark. Order-independent sums, so the conn map iteration stays
// deterministic.
func (n *NIC) TenantRxOccupancy(tenant uint32) (used, capacity, overHigh int) {
	for _, c := range n.conns {
		if c.Meta.Tenant != tenant {
			continue
		}
		used += c.RX.Len()
		capacity += c.RX.Cap()
		if c.RX.AboveHigh() {
			overHigh++
		}
	}
	return used, capacity, overHigh
}
