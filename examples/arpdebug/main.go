// ARP-flood debugging (§2 of the paper, "based on a true story"): something
// on the host is spraying ARP who-has requests. Alice needs to find *which
// process*. Under raw kernel bypass she would audit every application by
// hand; with an on-path, OS-integrated interposition layer she runs one
// capture and reads the attribution off the packets — and the kernel ARP
// accounting names the culprit directly. The scenario is
// experiments.ARPFlood, the one E2's debugging cell grades.
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
	for _, a := range []norman.Architecture{norman.Bypass, norman.Hypervisor, norman.KOPI} {
		fmt.Fprintf(out, "=== %s\n", a)
		report(out, experiments.ARPFlood(a, 1))
		fmt.Fprintln(out)
	}
}

func report(out io.Writer, r experiments.ARPFloodResult) {
	if r.TapErr != nil {
		fmt.Fprintf(out, "tcpdump: %v\n", r.TapErr)
		fmt.Fprintln(out, "verdict: no visibility — audit every app by hand (§2)")
		return
	}
	fmt.Fprintf(out, "tcpdump arp: %d frames seen, %d ARP matched\n", r.Seen, r.Matched)
	for _, s := range r.ByWho {
		fmt.Fprintf(out, "  %4d ARP frames from [%s]\n", s.Frames, s.Who)
	}
	if r.TopRequests > 0 {
		fmt.Fprintf(out, "kernel ARP accounting: pid %d sent %d requests\n", r.TopPID, r.TopRequests)
	}
	if r.Named {
		fmt.Fprintf(out, "verdict: culprit identified (leakyd pid=%d)\n", r.CulpritPID)
	} else {
		fmt.Fprintln(out, "verdict: flood visible but unattributable — still auditing apps")
	}
}
