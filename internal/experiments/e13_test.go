package experiments

import "testing"

// TestE13Isolation asserts the architectural content of the table: the bare
// bypass world gives the victim tenant nothing — the adversary's elephant
// flows thrash the shared DDIO ways, its cycle-burner program taxes every
// frame, and the victim's tail latency balloons at least 5× past its solo
// baseline — while the governed KOPI world holds the victim's p99 within
// 1.5× of solo and its goodput within 5% of the offered 12.5 Gbps, refuses
// the adversary's ring working set with typed rejections and its program by
// cycle bound, and accounts for every non-delivered frame in both worlds.
func TestE13Isolation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity sweep (~10s): the sub-0.5 scales shorten runs into the warm-up transient")
	}
	points, _ := RunE13(0.6)

	byConns := make(map[int]E13Point, len(points))
	for _, p := range points {
		byConns[p.AdvConns] = p
	}
	post, ok := byConns[8192]
	if !ok {
		t.Fatal("sweep must include the 8192-connection post-cliff point")
	}

	// The raw world exhibits the isolation failure.
	if post.RawVicP99 < 5*post.SoloP99 {
		t.Fatalf("uncontrolled victim p99 %.1fµs must be >= 5x the solo %.1fµs",
			post.RawVicP99, post.SoloP99)
	}
	if post.RawVicGbps >= 0.9*pairVictimGbps {
		t.Fatalf("uncontrolled victim goodput %.2f Gbps must collapse below 90%% of the offered %.1f",
			post.RawVicGbps, float64(pairVictimGbps))
	}

	// The governed world holds the victim.
	if post.CtlVicP99 > 1.5*post.SoloP99 {
		t.Fatalf("governed victim p99 %.1fµs must stay within 1.5x the solo %.1fµs",
			post.CtlVicP99, post.SoloP99)
	}
	if post.CtlVicGbps < 0.95*pairVictimGbps {
		t.Fatalf("governed victim goodput %.2f Gbps must stay within 5%% of the offered %.1f",
			post.CtlVicGbps, float64(pairVictimGbps))
	}

	// Containment is visible and typed, never silent.
	if post.CtlRejected == 0 {
		t.Fatal("the governor must refuse part of the adversary's ring working set")
	}
	if post.CtlProgRefused != 1 {
		t.Fatalf("the cycle-bound gate must refuse the adversary's program once, got %d",
			post.CtlProgRefused)
	}
	if post.CtlVicState != "ok" {
		t.Fatalf("victim tenant health = %q, want ok", post.CtlVicState)
	}
	if post.CtlAdvState == "ok" {
		t.Fatal("the adversary tenant's private health machine must report pressure")
	}
	for _, p := range points {
		if p.CtlSilent != 0 || p.RawSilent != 0 {
			t.Fatalf("silent losses at %d adv conns: raw=%d ctl=%d",
				p.AdvConns, p.RawSilent, p.CtlSilent)
		}
	}
}
