// Port partitioning (§2 of the paper): Alice wants only Bob's postgres to
// use port 5432. Charlie's misconfigured script writes raw frames claiming
// destination port 5432 — trivial under kernel bypass, where applications
// own their rings. This example runs the attack against every architecture
// and shows where the owner-based policy is even expressible, and where it
// actually holds. The scenario is experiments.PortPartition, the one E8a's
// rows and E2's port-partition cell run; Scale(0.25) sends 50 frames each.
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
	fmt.Fprintln(out, "policy: only uid=1001 cmd=postgres may send to UDP port 5432")
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-12s  %-18s  %-16s  %s\n", "architecture", "policy installable", "legit delivered", "violations escaped")
	for _, a := range norman.Architectures() {
		r := experiments.PortPartition(a, 0.25)
		fmt.Fprintf(out, "%-12s  %-18v  %-16d  %d\n", a, r.PolicyInstalled, r.LegitPackets, r.Violations)
	}
}
