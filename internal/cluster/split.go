package cluster

import (
	"fmt"
	"sort"
)

// Split partitions the ranks of c into disjoint communicators, as
// MPI_Comm_split does: ranks passing the same color land in the same
// group, ordered by key (ties by rank in c). Every rank of c must call
// Split collectively. A negative color returns nil (the rank opts out,
// like MPI_UNDEFINED).
//
// The result is an ordinary *Comm: point-to-point calls and every
// collective work on it with group ranks 0..Size-1, and it can itself be
// split. Its traffic rides a context of its own — a disjoint tag range —
// so it never collides with the parent's or a sibling's, and AnyTag and
// AnySource receives on it match only its own user messages.
//
// The teaching cluster uses split communicators for, e.g., per-node local
// reductions before a global one (the hierarchy §2 alludes to with "local
// reductions ... again at each multicore node").
func (c *Comm) Split(color, key int) *Comm {
	c.beginColl("Split", -1)
	all := Allgather(c, splitEntry{color, key, c.nextCtx})
	c.endColl()

	// Context ids are agreed, not counted locally: ranks of c may have
	// split different communicators a different number of times, so the
	// new context is the largest next-free id any member reports. It is
	// then fresh on every member, and all of them move past it.
	ctx := 0
	for _, e := range all {
		ctx = max(ctx, e.NextCtx)
	}
	c.nextCtx = ctx + 1
	if color < 0 {
		return nil
	}
	var members []int // ranks in c, in rank order
	for r, e := range all {
		if e.Color == color {
			members = append(members, r)
		}
	}
	sort.SliceStable(members, func(i, j int) bool {
		return all[members[i]].Key < all[members[j]].Key
	})
	sub := &Comm{endpoint: c.endpoint, ranks: make([]int, len(members)), ctx: ctx}
	for g, r := range members {
		sub.ranks[g] = c.worldOf(r)
		if r == c.rank {
			sub.rank = g
		}
	}
	return sub
}

// splitEntry is Split's Allgather payload. Package-level (not a function
// local) with exported fields so it can cross the net device's gob wire;
// it is registered in netdev.go's init.
type splitEntry struct{ Color, Key, NextCtx int }

// Context tag layout. The world (context 0) keeps its tags as they are:
// user tags are non-negative and collectives count down from collTagBase.
// Context k >= 1 owns the ctxSpan wire tags at and below ctxBase(k), far
// below every world tag: user tag u is ctxBase(k)-u for u in
// [0, ctxUserTags), and collective tags fill the rest of the span.
const (
	ctxTagBase  = -(1 << 40)
	ctxSpan     = 1 << 32
	ctxUserTags = 1 << 20
)

func ctxBase(ctx int) int { return ctxTagBase - (ctx-1)*ctxSpan }

// isUserTag reports whether wire tag t is a user tag of context ctx —
// the set AnyTag matches.
func isUserTag(t, ctx int) bool {
	if ctx == 0 {
		return t >= 0
	}
	base := ctxBase(ctx)
	return t <= base && t > base-ctxUserTags
}

// wireTag maps a user tag to its wire tag in c's context.
func (c *Comm) wireTag(tag int) int {
	if c.ctx == 0 {
		return tag
	}
	if tag < 0 || tag >= ctxUserTags {
		panic(fmt.Sprintf("cluster: split communicator tag %d outside [0, %d)", tag, ctxUserTags))
	}
	return ctxBase(c.ctx) - tag
}

// recvTag is wireTag for receives and probes, where AnyTag passes through
// and the mailbox scopes it to c's context.
func (c *Comm) recvTag(tag int) int {
	if tag == AnyTag {
		return AnyTag
	}
	return c.wireTag(tag)
}

// userTag is wireTag's inverse for the user tags probes report.
func (c *Comm) userTag(wire int) int {
	if c.ctx == 0 {
		return wire
	}
	return ctxBase(c.ctx) - wire
}
