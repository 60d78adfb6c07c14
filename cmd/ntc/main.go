// Command ntc configures the egress scheduler on a running normand — the
// paper's QoS scenario as a tool. Classification is by owning user id,
// which only an OS-integrated interposition point can do. It sends the
// norman.QdiscSpec the daemon journals, with classes numbered in ascending
// uid order; -show prints the daemon's standing spec, whether set in this
// daemon or recovered from its journal.
//
//	ntc -qdisc wfq -class 1001=1 -class 1002=8      # bob weight 1, charlie 8
//	ntc -qdisc tbf -rate-gbps 1                      # cap everything at 1G
//	ntc -show
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"norman"
	"norman/internal/ctl"
)

// classFlags collects repeated -class uid=weight arguments.
type classFlags map[uint32]float64

func (c classFlags) String() string { return fmt.Sprintf("%v", map[uint32]float64(c)) }

func (c classFlags) Set(s string) error {
	uidStr, wStr, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want uid=weight, got %q", s)
	}
	uid, err := strconv.ParseUint(uidStr, 10, 32)
	if err != nil {
		return err
	}
	w, err := strconv.ParseFloat(wStr, 64)
	if err != nil {
		return err
	}
	c[uint32(uid)] = w
	return nil
}

func main() {
	socket := flag.String("socket", ctl.DefaultSocket, "normand control socket")
	qdisc := flag.String("qdisc", "", "install qdisc: wfq, drr, tbf, prio, pfifo")
	rate := flag.Float64("rate-gbps", 0, "tbf rate in Gbit/s")
	burst := flag.Float64("burst-kb", 64, "tbf burst in KiB")
	show := flag.Bool("show", false, "show current qdisc")
	classes := classFlags{}
	flag.Var(classes, "class", "uid=weight class mapping (repeatable)")
	flag.Parse()

	c, err := ctl.Dial(*socket)
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	switch {
	case *show:
		var desc string
		if err := c.Call(ctl.OpTCShow, nil, &desc); err != nil {
			fatal(err)
		}
		fmt.Println(desc)
	case *qdisc != "":
		if err := c.Call(ctl.OpTCSet, buildSpec(*qdisc, classes, *rate, *burst), nil); err != nil {
			fatal(err)
		}
		fmt.Printf("qdisc %s installed\n", *qdisc)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// buildSpec builds the tc.set payload: classes 1, 2, … go to the -class uids
// in ascending uid order, so the same flags always install and journal the
// same classes.
func buildSpec(kind string, classes classFlags, rateGbps, burstKB float64) norman.QdiscSpec {
	spec := norman.QdiscSpec{
		Kind:       kind,
		Weights:    map[uint32]float64{},
		ClassOfUID: map[uint32]uint32{},
		RateBps:    rateGbps * 1e9 / 8,
		BurstBytes: burstKB * 1024,
	}
	uids := make([]uint32, 0, len(classes))
	for uid := range classes {
		uids = append(uids, uid)
	}
	sort.Slice(uids, func(i, j int) bool { return uids[i] < uids[j] })
	for i, uid := range uids {
		class := uint32(i + 1)
		spec.Weights[class] = classes[uid]
		spec.ClassOfUID[uid] = class
	}
	return spec
}

func fatal(err error) {
	var u *ctl.Unreachable
	if errors.As(err, &u) {
		fmt.Fprintf(os.Stderr, "ntc: normand unreachable at %s\n", u.Addr)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ntc: %v\n", err)
	os.Exit(1)
}
