// Process scheduling (§2 of the paper): applications with intermittent
// traffic want to *sleep* until data arrives, but kernel bypass means the
// kernel never sees arrivals and cannot wake anyone — so apps poll and burn
// whole cores. KOPI's NIC appends to a shared notification queue that the
// kernel monitors (§4.3), restoring blocking I/O. This example measures
// cores burned and median delivery latency for poll vs block at a low
// arrival rate, where the difference is most painful. The scenario is
// experiments.Blocking, the one E2's scheduling cell grades.
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
	fmt.Fprintln(out, "workload: 5000 packets/s inbound for 20ms of virtual time")
	fmt.Fprintf(out, "%-12s  %-7s  %-13s  %-12s  %s\n", "architecture", "mode", "cores burned", "p50 latency", "delivered")
	for _, a := range []norman.Architecture{norman.Bypass, norman.KernelStack, norman.KOPI} {
		for _, r := range experiments.Blocking(a, 1) {
			if r.Err != nil {
				fmt.Fprintf(out, "%-12s  %-7s  %v\n", a, r.Mode, r.Err)
				continue
			}
			fmt.Fprintf(out, "%-12s  %-7s  %-13.4f  %-12s  %d\n", a, r.Mode, r.Cores, r.P50.String(), r.Delivered)
		}
	}
}
