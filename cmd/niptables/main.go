// Command niptables manages firewall rules on a running normand, in
// (abridged) iptables syntax — including the owner matches that make the
// paper's port-partitioning scenario enforceable on KOPI. It sends the
// recovery.RuleRecord the daemon journals; the chain name is upper-cased, and
// any chain but INPUT or OUTPUT is refused:
//
//	niptables -A OUTPUT -p udp --dport 5432 -m-owner-uid 1001 -m-owner-cmd postgres -j ACCEPT
//	niptables -A OUTPUT -p udp --dport 5432 -j DROP
//	niptables -L
//	niptables -F
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"norman/internal/ctl"
	"norman/internal/recovery"
)

func main() {
	socket := flag.String("socket", ctl.DefaultSocket, "normand control socket")
	appendHook := flag.String("A", "", "append a rule to this chain (INPUT or OUTPUT)")
	list := flag.Bool("L", false, "list rules")
	flush := flag.Bool("F", false, "flush all rules")
	proto := flag.String("p", "", "protocol (udp, tcp)")
	src := flag.String("s", "", "source CIDR")
	dst := flag.String("d", "", "destination CIDR")
	sport := flag.Uint("sport", 0, "source port")
	dport := flag.Uint("dport", 0, "destination port")
	uidOwner := flag.Int("m-owner-uid", -1, "match owning uid (needs a process view)")
	cmdOwner := flag.String("m-owner-cmd", "", "match owning command (needs a process view)")
	action := flag.String("j", "ACCEPT", "verdict: ACCEPT, DROP, COUNT, LOG")
	flag.Parse()

	c, err := ctl.Dial(*socket)
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	switch {
	case *list:
		var rules []string
		if err := c.Call(ctl.OpIPTablesList, nil, &rules); err != nil {
			fatal(err)
		}
		if len(rules) == 0 {
			fmt.Println("(no rules)")
		}
		for _, r := range rules {
			fmt.Println(r)
		}
	case *flush:
		if err := c.Call(ctl.OpIPTablesFlush, nil, nil); err != nil {
			fatal(err)
		}
		fmt.Println("flushed")
	case *appendHook != "":
		rr := recovery.RuleRecord{Hook: strings.ToUpper(*appendHook), Rule: recovery.Rule{
			Proto: *proto, SrcNet: *src, DstNet: *dst,
			SrcPort: uint16(*sport), DstPort: uint16(*dport),
			OwnerCmd: *cmdOwner, Action: strings.ToLower(*action),
		}}
		if *uidOwner >= 0 {
			u := uint32(*uidOwner)
			rr.OwnerUID = &u
		}
		if err := c.Call(ctl.OpIPTablesAdd, rr, nil); err != nil {
			fatal(err)
		}
		fmt.Println("rule installed (compiled to the NIC overlay where applicable)")
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	var u *ctl.Unreachable
	if errors.As(err, &u) {
		fmt.Fprintf(os.Stderr, "niptables: normand unreachable at %s\n", u.Addr)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "niptables: %v\n", err)
	os.Exit(1)
}
