// QoS (§2 of the paper): Bob and Charlie SSH into the server to play a
// game; Alice shapes the game's bandwidth so productive work is unaffected.
// Work-conserving per-user scheduling needs an interposition point with a
// global view AND a process view. This example configures a WFQ weighted
// 8:1 in favor of the backup, classified by user id, and shows the achieved
// split on three architectures. The scenario is experiments.QoSShare, the
// one E2's QoS cell grades.
package main

import (
	"fmt"
	"io"
	"os"

	"norman"
	"norman/internal/experiments"
)

func main() { run(os.Stdout) }

func run(out io.Writer) {
	fmt.Fprintln(out, "policy: tc qdisc wfq — backup (charlie) weight 8, game (bob) weight 1")
	fmt.Fprintf(out, "%-12s  %-14s  %-14s  %s\n", "architecture", "backup (Gbps)", "game (Gbps)", "achieved ratio")
	for _, a := range []norman.Architecture{norman.Bypass, norman.Hypervisor, norman.KOPI} {
		r := experiments.QoSShare(a, 1)
		if r.Err != nil {
			fmt.Fprintf(out, "%-12s  tc: %v\n", a, r.Err)
			continue
		}
		fmt.Fprintf(out, "%-12s  %-14.2f  %-14.2f  %.2f : 1\n", a, r.BackupGbps, r.GameGbps, r.Ratio)
	}
}
