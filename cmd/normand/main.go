// Command normand runs a live simulated Norman host and serves the control
// socket that the administrative tools (niptables, ntc, ntcpdump, nnetstat,
// narp) talk to — Figure 1 of the paper as a runnable system.
//
// The host carries a demo workload: Bob's postgres answering queries,
// Charlie's backup pushing bulk data, Bob's game chattering, and (with
// -flood) a buggy ARP-spraying daemon to debug. Virtual time advances as
// tools interact (plus on demand via `narp -advance`), so the world is
// always live but never burns your CPU.
//
// Usage:
//
//	normand [-arch kopi|kernelstack|bypass|sidecar|hypervisor]
//	        [-socket /tmp/normand.sock] [-flood] [-journal FILE]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"norman"
	"norman/internal/ctl"
	"norman/internal/health"
	"norman/internal/overload"
	"norman/internal/packet"
	"norman/internal/recovery"
	"norman/internal/upgrade"
	"norman/internal/wire"
)

func main() {
	archName := flag.String("arch", "kopi", "dataplane architecture to run")
	socket := flag.String("socket", ctl.DefaultSocket, "control socket path")
	flood := flag.Bool("flood", false, "include the buggy ARP-flooding daemon (the §2 debugging scenario)")
	journalPath := flag.String("journal", "", "persist the control-plane intent journal to this file; an existing journal is replayed on start (SIGKILL recovery)")
	journalCompact := flag.Int("journal-compact", 4096, "compact the journal on restart once it holds at least this many entries (0 disables)")
	flag.Parse()

	sys := norman.New(norman.Architecture(*archName))
	// The Enable* calls below wire to each other in any order (every one
	// ends in System.resolve); what does matter is that they all come before
	// the first dial. Recovery before anything mutates: every dial and policy
	// below lands in the intent journal, so a SIGKILL'd daemon restarted with
	// the same -journal reconciles instead of starting blind.
	sys.EnableRecovery()
	// Live upgrades: staged A/B pipeline generations with canary-gated
	// cutover and automatic rollback; nnetstat -upgrade reads the phase and
	// the ctl upgrade.start op drives a same-policy flip. Enabled before the
	// journal is attached, since a hot restart re-adopts the live generation.
	sys.EnableLiveUpgrade(upgrade.Config{})
	// Observability on from the start: the metrics registry and the packet
	// tracer feed nnetstat -metrics and ntcpdump -trace.
	reg := sys.EnableTelemetry()
	// The journal is attached before the first journaled verb (the tenant
	// split below): replay loads only into an empty journal.
	if *journalPath != "" {
		if err := attachJournal(sys, *journalPath, *journalCompact); err != nil {
			log.Fatalf("normand: journal: %v", err)
		}
	}
	// Overload control before the demo dials, so they pass through admission
	// like any tenant's would; the watchdog samples as ctl requests step
	// virtual time, and nnetstat -pressure reads its state.
	sys.EnableOverload(overload.Config{}).Start(0)
	// Tenant isolation over the demo users: bob is the latency-sensitive
	// tenant (weight 3), charlie the bulk one (weight 1). The weighted
	// scheduler, DDIO partition and per-tenant budgets are all live;
	// nnetstat -tenants reads the merged rows. After a replay that restored
	// the same split this journals nothing.
	if err := sys.EnableTenantIsolation(map[uint32]int{1: 3, 2: 1}); err != nil {
		log.Fatalf("normand: tenant isolation: %v", err)
	}
	// The hardware fast path: a 1024-entry exact-match flow cache in front
	// of the ingress overlay pipeline, partitioned by the tenant weights
	// above; nnetstat -flows reads its hit/install/evict accounting.
	if err := sys.EnableFlowCache(1024); err != nil {
		log.Fatalf("normand: flow cache: %v", err)
	}
	// Hardware-health monitoring over the NIC: flow-cache checksum failures,
	// trap storms, DMA stalls and link flaps quarantine the failing component
	// and fail traffic over to the kernel slow path; nnetstat -health reads
	// the component rows. With the monitor on, the flow cache verifies its
	// entries' checksums from the first packet.
	sys.EnableHealth(health.Config{}).Start(0)
	// The far side of the link: a gateway endpoint (10.0.0.2) that echoes
	// UDP and answers pings, as any real peer would.
	net := wire.NewNetwork(sys.Arch())
	net.AddEndpoint(sys.World().PeerIP, sys.World().PeerMAC, wire.EchoUDP)

	bob := sys.AddUser(1001, "bob")
	charlie := sys.AddUser(1002, "charlie")
	sys.AssignTenant(bob, 1)
	sys.AssignTenant(charlie, 2)

	// Bob's postgres: steady request/response on port 5432.
	postgres := sys.Spawn(bob, "postgres")
	pgConn, err := sys.Dial(postgres, 5432, 5432)
	if err != nil {
		log.Fatalf("normand: postgres dial: %v", err)
	}
	loop(sys, pgConn, 256, 40*norman.Microsecond)

	// Charlie's backup: bulk transfer on port 873.
	backup := sys.Spawn(charlie, "backup")
	bkConn, err := sys.Dial(backup, 30873, 873)
	if err != nil {
		log.Fatalf("normand: backup dial: %v", err)
	}
	loop(sys, bkConn, 1460, 15*norman.Microsecond)

	// Bob's game: small chatty datagrams on an ephemeral port.
	game := sys.Spawn(bob, "game")
	gmConn, err := sys.Dial(game, 20101, 27015)
	if err != nil {
		log.Fatalf("normand: game dial: %v", err)
	}
	loop(sys, gmConn, 120, 25*norman.Microsecond)

	if *flood {
		leaky := sys.Spawn(charlie, "leakyd")
		leakConn, err := sys.Dial(leaky, 9999, 99)
		if err != nil {
			log.Fatalf("normand: leakyd dial: %v", err)
		}
		w := sys.World()
		target := uint32(0)
		var tick func()
		tick = func() {
			target++
			leakConn.SendRaw(packet.NewARPRequest(w.HostMAC, w.HostIP,
				packet.MakeIP(10, 0, byte(target>>8), byte(target))))
			sys.After(30*norman.Microsecond, tick)
		}
		sys.At(0, tick)
	}

	srv := ctl.NewServer(sys)
	srv.RegisterMetrics(reg, nil)
	fmt.Printf("normand: %s host up, %d demo processes, control socket %s\n",
		sys.ArchitectureName(), len(sys.Netstat()), *socket)
	if *flood {
		fmt.Println("normand: the ARP flooder is active — find it with ntcpdump/narp")
	}
	if err := srv.Listen(*socket); err != nil {
		fmt.Fprintf(os.Stderr, "normand: %v\n", err)
		os.Exit(1)
	}
}

// attachJournal wires durable journaling: an existing file is compacted when
// it has grown past the threshold (crash-safe rewrite: the dead entries of
// aborted, flushed, superseded and closed mutations are folded away), decoded
// and reconciled (the previous incarnation's intent, with its connections
// marked stale across the epoch), then every subsequent journal append is
// written through with an fsync — the write-ahead property survives SIGKILL.
func attachJournal(sys *norman.System, path string, compactAt int) error {
	if before, after, err := recovery.CompactFile(path, compactAt); err != nil {
		return fmt.Errorf("compacting %s: %w", path, err)
	} else if after < before {
		fmt.Printf("normand: compacted journal %s: %d -> %d entries\n", path, before, after)
	}
	var entries []recovery.Entry
	if f, err := os.Open(path); err == nil {
		entries, err = recovery.Decode(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("decoding %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	out, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// The persistence hook must be live before replay: recovery itself
	// appends the epoch-boundary entry, and if that entry never reaches the
	// file, the next incarnation's t=0 entries follow the old incarnation's
	// timestamps with no epoch between them and Verify rejects the journal
	// as time going backward.
	sys.Recovery().Journal().SetOnAppend(func(e recovery.Entry) {
		line, err := recovery.EncodeEntry(e)
		if err != nil {
			log.Printf("normand: journal encode: %v", err)
			return
		}
		if _, err := out.Write(line); err != nil {
			log.Printf("normand: journal write: %v", err)
			return
		}
		out.Sync()
	})
	if len(entries) > 0 {
		rep, rerr := sys.RecoverFromJournal(entries)
		if rerr != nil {
			return fmt.Errorf("replaying %s: %w", path, rerr)
		}
		fmt.Printf("normand: replayed %d journal entries from %s: %d rules, %d stale conns, %d repairs, clean=%v\n",
			rep.Entries, path, rep.Rules, rep.Stale, len(rep.Actions), rep.Clean)
		// Hot restart: re-adopt whatever pipeline generation the dataplane is
		// serving — replay rebuilt the control plane's intent, the NIC never
		// stopped forwarding, and adoption records the generation without a
		// flip or a flush.
		gen := sys.Upgrade().Adopt(sys.World().Eng.Now())
		fmt.Printf("normand: adopted live pipeline generation %d\n", gen)
	}
	return nil
}

// loop schedules an endless fixed-interval sender on a connection.
func loop(sys *norman.System, c *norman.Conn, payload int, every norman.Duration) {
	var tick func()
	tick = func() {
		c.Send(payload)
		sys.After(every, tick)
	}
	sys.At(0, tick)
}
