package nic

import (
	"sort"

	"norman/internal/sim"
)

// This file is the service discipline of the NIC's shared resources
// (OSMOSIS-shaped). The two serial NIC-internal resources — the overlay
// pipeline and the PCIe DMA engine — are each a Stage, a server plus the
// discipline that orders who it serves, and the ingress FIFO is a table of
// shares; the datapath submits every frame to the stages and admits every
// frame against the table, in one order. Which discipline is installed is
// decided here and nowhere else, from what the stage can see: with no tenant
// weights a stage is the analytic FIFO its server already is and the FIFO is
// one share everybody is in; with weights a stage runs weighted deficit round
// robin over per-tenant rings and the FIFO is carved into per-tenant shares,
// which is what keeps an adversarial neighbor's backlog out of a
// latency-sensitive tenant's way. Admission control (the overload governor)
// decides *whether* a tenant gets resources; this layer decides *in what
// order*. Both disciplines stay because each was measured better somewhere
// (DESIGN.md §9): DRR's pump costs two events per frame the FIFO never
// schedules, and the FIFO cannot isolate.

// A queued request for a stage is the frame's own datapath job (job.go):
// per-tenant queues are rings of job pointers, so steady-state scheduling
// allocates nothing. The job's stage says which resource it wants and which
// continuation the grant resumes; est is the *estimated* server occupancy
// used for deficit accounting at selection time — the actual cost (which may
// include a DDIO descriptor miss the scheduler cannot predict) is billed as a
// correction when the request is served.

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

// Stage is one serial NIC resource — a sim.Server — and the discipline that
// orders who it serves. With no tenant weights (qs == nil) that is the server's
// own FIFO: Request acquires it and resumes the datapath on the spot — no
// queue, no event, no accounting. With weights it is deficit round robin —
// the same discipline as the qos egress DRR, rebuilt over job rings so the
// per-packet hot path (Request → select → serve) allocates nothing. Each round
// a backlogged tenant's deficit grows by weight × the cost of one full frame
// on this resource; it is served while the deficit covers the head grant's
// estimate. Overlay cycles and miss penalties the estimate missed are billed
// post-hoc with Charge, so a tenant that runs expensive programs pays for
// them in its own schedule, not its neighbors'.
type Stage struct {
	nic *NIC
	srv *sim.Server

	qs    map[uint32]*tenantQ // nil: no tenant has a weight, the server's FIFO is the discipline
	order []uint32            // sorted tenant ids, for deterministic accessors

	active     []uint32 // round-robin ring of backlogged tenant ids
	activeHead int
	activeN    int

	backlog int
	pumping bool
	pumpFn  func()

	base      sim.Duration // one weight unit's per-round refill
	defWeight int
}

func newStage(n *NIC, srv *sim.Server, weights map[uint32]int, base sim.Duration) *Stage {
	if base < 1 {
		base = 1
	}
	d := &Stage{nic: n, srv: srv, base: base, defWeight: 1}
	d.pumpFn = d.pump
	if len(weights) > 0 {
		d.qs = make(map[uint32]*tenantQ, len(weights))
	}
	for id, w := range weights { // addQueue keeps order sorted whatever the map's order
		d.addQueue(id, w)
	}
	return d
}

func (d *Stage) addQueue(tenant uint32, weight int) *tenantQ {
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
func (d *Stage) queue(tenant uint32) *tenantQ {
	if q, ok := d.qs[tenant]; ok {
		return q
	}
	return d.addQueue(tenant, d.defWeight)
}

// Request submits g to the stage; g.stage names the step the grant resumes and
// g.est the occupancy it expects. Under the FIFO discipline that is the whole
// of it: acquire the server, continue. Under DRR, when the resource is idle
// and no one is backlogged the grant is served immediately — an uncontended
// tenant sees exactly the FIFO latency, and (as in classic DRR) uncontended
// serves do not touch deficits. Otherwise the request queues on its tenant
// ring and the round-robin pump orders it against the other tenants'
// backlogs. The caller settles g: a queued request is armed (the ring holds
// it), one served on the spot is whatever its step left it.
func (d *Stage) Request(g *job) {
	now := d.nic.eng.Now()
	if d.qs == nil {
		_, done := d.srv.Acquire(now, d.cost(g))
		d.grant(g, done)
		return
	}
	if g.stage == stRxDMA {
		g.index = g.c.RX.Head() // DRR claims the ring slot on joining the queue (see book)
	}
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
// a tenant's deficit; the FIFO discipline keeps none. It only bites while the
// tenant is backlogged — deficits reset when a queue drains — which is the
// right scope: uncontended work delays nobody.
func (d *Stage) Charge(tenant uint32, dur sim.Duration) {
	if d.qs == nil || dur <= 0 {
		return
	}
	d.queue(tenant).deficit -= int64(dur)
}

// book is the DMA stage's one discipline-specific step outside Request: a
// steered rx frame leaves the pipeline at at and returns when its store may
// be requested. The FIFO discipline claims the RX ring slot now and holds the
// frame until the engine frees up; DRR claims on joining the tenant's ring and
// waits there. When the slot is claimed is pinned by 22 table lines across six
// experiments (DESIGN.md §9), so it stays with the discipline.
func (d *Stage) book(g *job, at sim.Time) sim.Time {
	if d.qs != nil {
		return at
	}
	g.index = g.c.RX.Head()
	return max(at, d.srv.FreeAt())
}

// cost is g's actual server occupancy. The pipeline's is frame-length-
// determined, so the estimate is exact; the DMA engine's is decided here, at
// serve time and exactly once, because it touches the LLC — this is where the
// descriptor's DDIO fate (per-tenant partition included) is settled.
func (d *Stage) cost(g *job) sim.Duration {
	switch g.stage {
	case stTxFetch:
		return d.nic.dmaCost(g.c, &g.c.TX, g.index, g.frame, false)
	case stRxDMA:
		return d.nic.dmaCost(g.c, &g.c.RX, g.index, g.frame, true)
	}
	return g.est
}

// grant resumes g's datapath now that it owns the server until done. A TX
// fetch continues the connection's drain chain and delivers the frame to the
// egress pipeline after the PCIe flight; an RX store becomes host-visible
// after the same flight. A job its step does not arm again is freed.
func (d *Stage) grant(g *job, done sim.Time) {
	n := d.nic
	switch g.stage {
	case stRxPipe:
		n.rxPipe(g, done)
	case stTxPipe:
		n.txPipe(g, done)
	case stTxFetch:
		n.txFetched(g, done)
	case stRxDMA:
		g.arm(stRxVisible, done.Add(n.model.DMALatency))
	}
}

// serve grants g the server now and resumes its datapath, returning what the
// grant actually cost and when it ends.
func (d *Stage) serve(q *tenantQ, g *job, now sim.Time) (sim.Duration, sim.Time) {
	cost := d.cost(g)
	_, done := d.srv.Acquire(now, cost)
	q.grants++
	q.work += cost
	q.wait += now.Sub(g.enq)
	d.grant(g, done)
	return cost, done
}

// schedule keeps exactly one pending pump event against the server.
func (d *Stage) schedule(at sim.Time) {
	if d.pumping {
		return
	}
	d.pumping = true
	if now := d.nic.eng.Now(); at.Before(now) {
		at = now
	}
	d.nic.eng.At(at, d.pumpFn)
}

func (d *Stage) pump() {
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
func (d *Stage) next() (*job, *tenantQ, bool) {
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

func (d *Stage) activePush(id uint32) {
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

func (d *Stage) activePop() uint32 {
	id := d.active[d.activeHead]
	d.activeHead = (d.activeHead + 1) % len(d.active)
	d.activeN--
	return id
}

func (d *Stage) activeRotate() { d.activePush(d.activePop()) }

// Backlog returns the total queued grants across tenants.
func (d *Stage) Backlog() int { return d.backlog }

// tenantRx is one share of the ingress FIFO, plus the drops charged to it by
// reason (ledger.go). Partitioning the FIFO is what stops a backlogged
// neighbor's frames from camping every slot: each tenant overflows its own
// share and the MAC drops *its* excess, not the victim's.
type tenantRx struct {
	inflight int
	window   int
	drops    [NumReasons]uint64
}

// TenantSched is the NIC's service discipline: the two stages and the ingress
// FIFO's share table. A NIC always has one; NIC.SetTenantScheduler replaces it
// whole (a control-plane configuration, like steering or programs — do it
// before traffic flows). With no weights the stages are FIFO and every frame
// occupies the one catch-all share, all, which is the whole FIFO; with weights
// each tenant has its own row and all stays empty.
type TenantSched struct {
	n    *NIC
	Pipe *Stage
	DMA  *Stage

	weights map[uint32]int
	total   int

	all     tenantRx
	rx      map[uint32]*tenantRx
	rxOrder []uint32
}

func newTenantSched(n *NIC, weights map[uint32]int) *TenantSched {
	s := &TenantSched{
		n:       n,
		weights: make(map[uint32]int, len(weights)),
		rx:      make(map[uint32]*tenantRx, len(weights)),
		all:     tenantRx{window: n.rxWindow},
	}
	for id, w := range weights {
		s.weights[id] = max(w, 1)
		s.total += max(w, 1)
	}
	// Quanta: one weight unit buys one full frame per round on each resource.
	full := n.price(1514)
	s.Pipe = newStage(n, n.pipeline, s.weights, full.pipe)
	s.DMA = newStage(n, n.dma, s.weights, full.dma)
	for id := range s.weights { // shares need the total; rxQueue keeps rxOrder sorted
		s.rxQueue(id)
	}
	return s
}

// share returns the row of the table a tenant's frames occupy and its drops
// are charged to: the catch-all while no tenant has a weight, the tenant's
// own (created on first sight) once the FIFO is carved up.
func (s *TenantSched) share(tenant uint32) *tenantRx {
	if s.total == 0 {
		return &s.all
	}
	return s.rxQueue(tenant)
}

// resize refits every share to the FIFO depth they are fractions of.
func (s *TenantSched) resize() {
	s.all.window = s.n.rxWindow
	for id, r := range s.rx {
		r.window = s.rxShare(id)
	}
}

// inflight sums the FIFO slots the table has out: RxInflight() by another route.
func (s *TenantSched) inflight() int {
	sum := s.all.inflight
	for _, r := range s.rx {
		sum += r.inflight
	}
	return sum
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
// DMA engine across tenants (weights sum to the total share; higher = more),
// with the ingress FIFO carved up by the same weights. nil or empty weights
// restore the FIFO discipline. Install at configuration time, before traffic
// flows.
func (n *NIC) SetTenantScheduler(weights map[uint32]int) { n.tsched = newTenantSched(n, weights) }

// TenantScheduler returns the tenant scheduler, nil when no weights are
// installed.
func (n *NIC) TenantScheduler() *TenantSched {
	if n.tsched.total == 0 {
		return nil
	}
	return n.tsched
}

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
// account (0 when no weights are installed — FIFO-discipline drops are global).
func (n *NIC) TenantDrops(tenant uint32, r Reason) uint64 {
	if row := n.tsched.rx[tenant]; row != nil {
		return row.drops[r]
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
