// Command nnetstat lists connections on a running normand with full
// process attribution — the kernel-table join (flow ↔ pid/uid/command) that
// off-host interposition layers cannot produce. Each flag swaps that view for
// one subsystem's status, decoded into the struct the subsystem itself
// declares (DESIGN.md §13):
//
//	-metrics   the unified telemetry registry, every layer from host syscalls
//	           to the NIC (Prometheus text; JSON with -json)
//	-recovery  crash recovery: journal size, control plane up/down, the last
//	           reconciliation (diff clean or not, invariants, repairs)
//	-pressure  the overload governor's snapshot: watchdog state, admission
//	           and every typed refusal (ddio, tenant, pressure, throttle,
//	           program), ring budget, shedding/backpressure, and one budget
//	           row per tenant
//	-tenants   tenant isolation: per-tenant scheduler grants and queue waits,
//	           DDIO partition hits and misses, governor budgets and health
//	-flows     the NIC flow cache: occupancy, hit/miss, install/evict/
//	           invalidate accounting, per-tenant partition rows
//	-health    the hardware-health monitor: quarantine/failover/failback
//	           events and the per-component state rows
//	-upgrade   live upgrade: phase, pipeline generation, cutover/commit/
//	           rollback counts, canary accounting, the last flip's pause-buffer
//	           and warm-transfer numbers
//	-ledger    the conservation ledgers out of the telemetry dump: the NIC's
//	           (frames in, every typed drop reason, the in-flight terms and
//	           the residual, 0 unless a frame was lost silently), then the
//	           host's above the ring
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"norman"
	"norman/internal/arch"
	"norman/internal/ctl"
	"norman/internal/nic"
	"norman/internal/recovery"
)

func main() {
	socket := flag.String("socket", ctl.DefaultSocket, "normand control socket")
	metrics := flag.Bool("metrics", false, "dump the daemon's telemetry registry instead of connections")
	jsonOut := flag.Bool("json", false, "with -metrics: render JSON instead of Prometheus text")
	recoveryFlag := flag.Bool("recovery", false, "show the daemon's crash-recovery status (journal, last reconciliation)")
	pressure := flag.Bool("pressure", false, "show the daemon's overload-governor status (watchdog state, admission, shedding)")
	tenantsFlag := flag.Bool("tenants", false, "show the daemon's per-tenant isolation status (scheduler grants, DDIO partition, budgets)")
	flowsFlag := flag.Bool("flows", false, "show the NIC flow-cache status (occupancy, hit/miss, per-tenant partitions)")
	healthFlag := flag.Bool("health", false, "show the NIC hardware-health monitor (component states, quarantines, failovers)")
	upgradeFlag := flag.Bool("upgrade", false, "show the live-upgrade subsystem (phase, generation, canary, rollbacks)")
	ledgerFlag := flag.Bool("ledger", false, "show the NIC and host conservation ledgers (drop reasons, in-flight terms, residual)")
	flag.Parse()

	c, err := ctl.Dial(*socket)
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	if *pressure {
		var data ctl.OverloadData
		if err := c.Call(ctl.OpOverload, nil, &data); err != nil {
			fatal(err)
		}
		if !data.Enabled {
			fmt.Println("watchdog: overload control not enabled on this daemon")
			return
		}
		sampling := "stopped"
		if data.Watching {
			sampling = "sampling"
		}
		fmt.Printf("watchdog: %s (%s, %d transitions)\n", data.State, sampling, data.Transitions)
		fmt.Printf("admission: %d admitted, rejected %d ddio / %d tenant / %d pressure / %d throttle / %d program\n",
			data.Admitted, data.RejectedDDIO, data.RejectedTenant, data.RejectedLoad,
			data.RejectedThrottle, data.RejectedProgram)
		budget := func(n int) string { // 0 = no cache model, nothing to budget against
			if n > 0 {
				return fmt.Sprint(n)
			}
			return "unlimited"
		}
		fmt.Printf("ring budget: %d / %s bytes (occupancy %.2f, fifo %.2f)\n",
			data.RingBytes, budget(data.RingBudget), data.Occupancy, data.FifoFrac)
		fmt.Printf("degradation: %d packets shed, %d backpressure signals\n",
			data.ShedPackets, data.Signals)
		for _, r := range data.Tenants {
			fmt.Printf("  tenant %d (weight %d): %s, %d conns, ring %d / %s bytes, %d transitions\n",
				r.Tenant, r.Weight, r.State, r.Conns, r.RingBytes, budget(r.RingBudget), r.Transitions)
		}
		return
	}

	if *flowsFlag {
		var data norman.FlowCacheStatus
		if err := c.Call(ctl.OpFlowCache, nil, &data); err != nil {
			fatal(err)
		}
		if !data.Enabled {
			fmt.Println("flowcache: not enabled on this daemon")
			return
		}
		part := "unpartitioned"
		if data.Partitioned {
			part = fmt.Sprintf("%d tenant partitions", len(data.Tenants))
		}
		total := data.Hits + data.Misses
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(data.Hits) / float64(total)
		}
		fmt.Printf("flowcache: %d / %d entries, %s\n", data.Entries, data.Capacity, part)
		fmt.Printf("lookups: %d hits / %d misses (%.1f%% hit)\n", data.Hits, data.Misses, pct)
		fmt.Printf("churn: %d installs, %d evictions, %d invalidations, %d denied\n",
			data.Installs, data.Evictions, data.Invalidations, data.Denied)
		for _, r := range data.Tenants {
			fmt.Printf("  tenant %d: %d / %d entries, %d hits, %d installs, %d evictions, %d denied\n",
				r.Tenant, r.Used, r.Quota, r.Hits, r.Installs, r.Evicts, r.Denied)
		}
		return
	}

	if *healthFlag {
		var data norman.HealthStatus
		if err := c.Call(ctl.OpHealth, nil, &data); err != nil {
			fatal(err)
		}
		if !data.Enabled {
			fmt.Println("health: monitor not enabled on this daemon")
			return
		}
		sampling := "stopped"
		if data.Watching {
			sampling = "sampling"
		}
		fmt.Printf("health: %s, %d samples\n", sampling, data.Samples)
		fmt.Printf("events: %d quarantines, %d failovers, %d probes, %d failbacks\n",
			data.Quarantines, data.Failovers, data.Probes, data.Failbacks)
		for _, r := range data.Components {
			fmt.Printf("  %-10s %-12s %d signals, %d quarantines, %d failovers, %d failbacks\n",
				r.Component, r.State, r.Signals, r.Quarantines, r.Failovers, r.Failbacks)
		}
		return
	}

	if *upgradeFlag {
		var data norman.UpgradeStatus
		if err := c.Call(ctl.OpUpgradeStatus, nil, &data); err != nil {
			fatal(err)
		}
		if !data.Enabled {
			fmt.Println("upgrade: live-upgrade subsystem not enabled on this daemon")
			return
		}
		watching := "idle"
		if data.Watching {
			watching = "canary watching"
		}
		fmt.Printf("upgrade: generation %d, phase %s (%s)\n", data.Generation, data.Phase, watching)
		fmt.Printf("events: %d upgrades, %d commits, %d rollbacks, %d adoptions\n",
			data.Upgrades, data.Commits, data.Rollbacks, data.Adoptions)
		fmt.Printf("canary: %d samples, %d breaches\n", data.CanarySamples, data.CanaryBreaches)
		fmt.Printf("handover: %d frames pause-buffered, %d pause drops, %d cache entries warm-transferred\n",
			data.PauseBuffered, data.PauseDrops, data.WarmEntries)
		if data.LastRollback != "" {
			fmt.Printf("last rollback: %s\n", data.LastRollback)
		}
		return
	}

	if *tenantsFlag {
		var data ctl.TenantData
		if err := c.Call(ctl.OpTenants, nil, &data); err != nil {
			fatal(err)
		}
		if !data.Enabled {
			fmt.Println("tenants: isolation not enabled on this daemon")
			return
		}
		fmt.Printf("tenants: %d under weighted isolation\n", len(data.Tenants))
		for _, r := range data.Tenants {
			fmt.Printf("  tenant %d (weight %d): %s, %d conns, pipe %d / dma %d grants, %d fifo drops\n",
				r.Tenant, r.Weight, r.State, r.Conns, r.PipeGrants, r.DMAGrants, r.FifoDrops)
			fmt.Printf("    waits: pipe %dns, dma %dns; ddio: %d ways, %d hits / %d misses; ring %d / %d bytes, %d transitions\n",
				r.PipeWaitNs, r.DMAWaitNs, r.DDIOWays, r.DDIOHits, r.DDIOMisses, r.RingBytes, r.RingBudget, r.Transitions)
		}
		return
	}

	if *recoveryFlag {
		var data recovery.Status
		if err := c.Call(ctl.OpRecovery, nil, &data); err != nil {
			fatal(err)
		}
		state := "up"
		if data.Down {
			state = "DOWN"
		}
		fmt.Printf("control plane: %s\n", state)
		fmt.Printf("journal: %d entries, %d crashes, %d restarts, %d mutations rejected while down\n",
			data.JournalEntries, data.Crashes, data.Restarts, data.RejectedWhileDown)
		rep := data.Last
		if rep == nil {
			fmt.Println("reconciliation: never run")
			return
		}
		diff := "diff clean"
		if !rep.Clean {
			diff = fmt.Sprintf("diff NOT clean (%d divergences)", len(rep.Divergences))
		}
		inv := "invariants ok"
		if !rep.InvariantsOK {
			inv = "invariants FAILED"
		}
		fmt.Printf("reconciliation: %s, %s, %d entries replayed, %d rules, %d conns, %d stale, recovery took %s\n",
			diff, inv, rep.Entries, rep.Rules, rep.Conns, rep.Stale, rep.RecoveryTime)
		for _, d := range rep.Divergences {
			fmt.Printf("  divergence: %s\n", d)
		}
		for _, a := range rep.Actions {
			fmt.Printf("  repair: %s: %s\n", a.Kind, a.Detail)
		}
		return
	}

	if *ledgerFlag {
		var data ctl.TelemetryData
		if err := c.Call(ctl.OpTelemetry, ctl.TelemetryArgs{Format: "prometheus"}, &data); err != nil {
			fatal(err)
		}
		// The NIC's rows (bare names), then the host's above the ring (host_…).
		for _, layer := range []struct {
			prefix string
			series []string
		}{{"norman_nic_", nic.LedgerSeries()}, {"norman_", arch.HostLedgerSeries()}} {
			terms := map[string]bool{}
			for _, s := range layer.series {
				terms[layer.prefix+s] = true
			}
			for _, line := range strings.Split(data.Body, "\n") {
				if terms[line[:strings.IndexAny(line+" ", "{ ")]] { // the series name ends at its labels or its value
					fmt.Println(strings.TrimPrefix(line, layer.prefix))
				}
			}
		}
		return
	}

	if *metrics {
		format := "prometheus"
		if *jsonOut {
			format = "json"
		}
		var data ctl.TelemetryData
		if err := c.Call(ctl.OpTelemetry, ctl.TelemetryArgs{Format: format}, &data); err != nil {
			fatal(err)
		}
		fmt.Print(data.Body)
		fmt.Fprintf(os.Stderr, "nnetstat: %d metrics across layers %v\n", data.Metrics, data.Layers)
		return
	}

	var rows []ctl.NetstatData
	if err := c.Call(ctl.OpNetstat, nil, &rows); err != nil {
		fatal(err)
	}
	fmt.Printf("%-5s %-38s %-6s %-6s %-14s %s\n", "conn", "flow", "pid", "uid", "command", "opened")
	for _, r := range rows {
		fmt.Printf("%-5d %-38s %-6d %-6d %-14s %s\n", r.ConnID, r.Flow, r.PID, r.UID, r.Command, r.Opened)
	}
}

func fatal(err error) {
	var u *ctl.Unreachable
	if errors.As(err, &u) {
		fmt.Fprintf(os.Stderr, "nnetstat: normand unreachable at %s\n", u.Addr)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "nnetstat: %v\n", err)
	os.Exit(1)
}
