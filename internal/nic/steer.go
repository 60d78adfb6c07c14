package nic

import (
	"fmt"
	"slices"

	"norman/internal/packet"
)

// This file is the flow director: the exact-match steering table and the one
// resolution of an inbound frame to its connection (DESIGN.md §8, "One
// resolution and one price list per frame").
//
// The control plane steers a connection by its local tuple and the frames it
// is steering arrive carrying the reverse, so a frame matches the entry under
// its own key or, failing that, the one under the reversed key. Both entries
// of a flow live in one row, keyed by the tuple with its smaller endpoint
// first: a frame is resolved by one probe whichever way it is heading.

// steerRow holds the two steering entries of one flow: fwd is the entry
// installed under the row's canonical key, rev the one under its reverse.
type steerRow struct{ fwd, rev *Conn }

// entry returns the half of the row that an exact key owns, given whether
// canonical flipped that key.
func (r *steerRow) entry(flipped bool) **Conn {
	if flipped {
		return &r.rev
	}
	return &r.fwd
}

// canonical orders k's endpoints, the smaller (address, port) first, and
// reports whether that reversed k. A key that is its own reverse is never
// flipped, so it only ever has a fwd entry.
func canonical(k packet.FlowKey) (packet.FlowKey, bool) {
	if uint64(k.Src)<<16|uint64(k.SrcPort) > uint64(k.Dst)<<16|uint64(k.DstPort) {
		return k.Reverse(), true
	}
	return k, false
}

// putRow stores k's row back; a row with no entry left is removed, so closed
// connections leave nothing behind.
func (n *NIC) putRow(ck packet.FlowKey, row steerRow) {
	if row == (steerRow{}) {
		delete(n.steering, ck)
		return
	}
	n.steering[ck] = row
}

// SteerFlow installs an exact-match steering entry (flow director). Each
// entry consumes SRAM.
func (n *NIC) SteerFlow(k packet.FlowKey, connID uint64) error {
	c, ok := n.conns[connID]
	if !ok {
		return ErrNoSuchConn
	}
	ck, flipped := canonical(k)
	row := n.steering[ck]
	e := row.entry(flipped)
	if *e == nil {
		if n.sramUsed+16 > n.sramBudget {
			return fmt.Errorf("%w: steering table", ErrSRAMExhausted)
		}
		n.sramUsed += 16
	}
	if *e != c && !slices.Contains(c.keys, k) {
		c.keys = append(c.keys, k)
	}
	*e = c
	n.steering[ck] = row
	n.fcInvalidateKey(k)
	return nil
}

// SteeredConn returns the connection id a flow is steered to, if any.
func (n *NIC) SteeredConn(k packet.FlowKey) (uint64, bool) {
	ck, flipped := canonical(k)
	row := n.steering[ck]
	if c := *row.entry(flipped); c != nil {
		return c.ID, true
	}
	return 0, false
}

// DropSteering removes one steering entry, releasing its SRAM. It models
// NIC-resident state loss (an SRAM row lost across a partial reset) for
// fault injection; the reconciler must detect and re-install the entry.
func (n *NIC) DropSteering(k packet.FlowKey) bool {
	ck, flipped := canonical(k)
	row := n.steering[ck]
	e := row.entry(flipped)
	if *e == nil {
		return false
	}
	*e = nil
	n.putRow(ck, row)
	n.sramUsed -= 16
	n.fcInvalidateKey(k)
	return true
}

// unsteerConn removes every steering entry that points at c (connection
// close), releasing their SRAM, and every flow-cache entry that points at it.
//
// A frame resolves to c only through a row half c was steered by, or as the
// default or an RSS queue. So while c was only ever steered, its entries in
// both tables sit under the keys it remembers and their reverses, and those
// are all its close touches: a half is cleared only if it still points at c,
// and a cache entry only if it names c, because the key may since have been
// re-steered and the other half of its row may belong to another connection.
// Keys stay remembered after a re-steer or a drop, so an entry a frame
// already in flight installs afterwards is still found. A connection the
// default queue or RSS delivered to holds entries under any key, and so does
// every connection while the cache holds entries the datapath did not install
// (FlowCache.Install): those closes scan both tables.
func (n *NIC) unsteerConn(c *Conn) {
	fc := n.fc
	if c.wide || (fc != nil && fc.foreign) {
		for ck, row := range n.steering {
			if row.fwd != c && row.rev != c {
				continue
			}
			if row.fwd == c {
				row.fwd = nil
				n.sramUsed -= 16
			}
			if row.rev == c {
				row.rev = nil
				n.sramUsed -= 16
			}
			n.putRow(ck, row)
		}
		if fc != nil {
			fc.InvalidateConn(c.ID)
		}
		return
	}
	for _, k := range c.keys {
		ck, flipped := canonical(k)
		row := n.steering[ck]
		if e := row.entry(flipped); *e == c {
			*e = nil
			n.putRow(ck, row)
			n.sramUsed -= 16
		}
		if fc != nil {
			fc.invalidateKeyConn(k, c.ID)
			fc.invalidateKeyConn(k.Reverse(), c.ID)
		}
	}
}

// steer resolves the destination connection for an inbound frame: the
// steering entry under the frame's own key, else the one under its reverse
// (the server side of a flow steered by local tuple) — one probe of the
// direction-normalised table answers both — then RSS, then the default queue.
func (n *NIC) steer(j *job) *Conn {
	if j.flow {
		ck, flipped := canonical(j.key)
		row := n.steering[ck]
		exact, reverse := row.fwd, row.rev
		if flipped {
			exact, reverse = reverse, exact
		}
		if exact != nil {
			return exact
		}
		if reverse != nil {
			return reverse
		}
	}
	if c := n.rssSteer(j); c != nil {
		return c
	}
	if n.defaultConn != 0 {
		if c, ok := n.conns[n.defaultConn]; ok {
			return c
		}
	}
	return nil
}
