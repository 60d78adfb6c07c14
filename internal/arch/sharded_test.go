package arch_test

import (
	"testing"

	"norman/internal/arch"
	"norman/internal/mem"
	"norman/internal/sim"
	"norman/internal/transport"
)

func scaleCfg(shards int) arch.ShardedConfig {
	return arch.ShardedConfig{
		Shards:   shards,
		Buckets:  16,
		Conns:    256,
		RingSize: 256,
		Batch:    16,
	}
}

// TestShardedWorldBucketInvariance: the connection → bucket mapping and
// bucket membership lists depend only on the fixed bucket count, never on
// how many shards the buckets are spread over.
func TestShardedWorldBucketInvariance(t *testing.T) {
	ref := arch.NewShardedWorld(scaleCfg(1))
	for _, shards := range []int{2, 4, 8} {
		sw := arch.NewShardedWorld(scaleCfg(shards))
		for c := 0; c < 256; c++ {
			if sw.BucketOf(c) != ref.BucketOf(c) {
				t.Fatalf("shards=%d: conn %d bucket %d != reference %d",
					shards, c, sw.BucketOf(c), ref.BucketOf(c))
			}
		}
	}
	// The hash must actually spread connections around.
	occupied := 0
	for b := range ref.Buckets {
		if len(ref.Conns(b)) > 0 {
			occupied++
		}
	}
	if occupied < 8 {
		t.Fatalf("only %d/16 buckets occupied: RSS spread broken", occupied)
	}
}

// shardedEcho drives a fixed per-bucket workload through the batched receive
// path and flyweight transport on an N-shard world, with a cross-bucket
// credit per delivery, and returns bucket-ordered counters.
func shardedEcho(t *testing.T, shards int) (delivered, bytes, credits uint64, end sim.Time) {
	t.Helper()
	sw := arch.NewShardedWorld(scaleCfg(shards))
	lat := sim.Duration(sw.Model.WireLatency)
	// Per-bucket credit counters: the ack closure runs on the destination
	// bucket's shard, so each array slot is only ever touched by its owner.
	creditBy := make([]uint64, len(sw.Buckets))
	sw.Deliver = func(bucket int, d mem.PktRef, at sim.Time) {
		if !transport.FlyweightRx(sw.Slab, int(d.Conn), d.Seq, int(d.Len), at) {
			t.Errorf("bucket %d: flyweight refused conn %d seq %d", bucket, d.Conn, d.Seq)
		}
		// Ack crosses to the peer bucket one wire latency later.
		peer := (bucket + 1) % len(sw.Buckets)
		sw.Coord.Send(bucket, peer, at.Add(lat), func() { creditBy[peer]++ })
	}
	// Every bucket sources 3 packets per local connection at staggered times.
	for b := range sw.Buckets {
		bk := sw.Buckets[b]
		conns := sw.Conns(b)
		if len(conns) == 0 {
			continue
		}
		for round := 0; round < 3; round++ {
			at := sim.Time(round) * sim.Time(2*sim.Microsecond)
			r := round
			bk.Eng.At(at, func() {
				for _, c := range conns {
					bk.QG.Arrive(mem.PktRef{Conn: c, Seq: uint32(r), Len: 256, At: bk.Eng.Now()})
				}
			})
		}
	}
	end = sw.Coord.Run()
	var credit uint64
	for _, n := range creditBy {
		credit += n
	}
	return sw.Delivered(), sw.BytesDelivered(), credit, end
}

// TestShardedWorldDeterminism: the full scale path — RSS buckets, batched
// drains, flyweight records, cross-shard credits — produces identical
// integer results at every shard count.
func TestShardedWorldDeterminism(t *testing.T) {
	d1, b1, c1, e1 := shardedEcho(t, 1)
	if d1 == 0 || c1 == 0 {
		t.Fatalf("reference run idle: delivered=%d credits=%d", d1, c1)
	}
	if b1 != d1*256 {
		t.Fatalf("bytes %d != delivered %d * 256", b1, d1)
	}
	for _, shards := range []int{2, 4, 8} {
		d, b, c, e := shardedEcho(t, shards)
		if d != d1 || b != b1 || c != c1 || e != e1 {
			t.Fatalf("shards=%d: (delivered,bytes,credits,end)=(%d,%d,%d,%v) != reference (%d,%d,%d,%v)",
				shards, d, b, c, e, d1, b1, c1, e1)
		}
	}
}
