package cluster

import "repro/internal/obs"

// Probe reports whether a message matching (src, tag) is waiting, without
// receiving it — MPI_Iprobe. src may be AnySource and tag AnyTag. With a
// trace attached the poll is recorded as an instant event, so a polling
// manager's duty cycle is visible on the timeline.
func (c *Comm) Probe(src, tag int) bool {
	_, _, hit := c.ProbeNext(src, tag)
	return hit
}

// ProbeNext reports the source and tag of the message a matching
// Recv(src, tag) would deliver next, without receiving it — MPI_Probe
// with its status object. The answer is seq-ordered (true arrival
// order), so the receive that follows is guaranteed to deliver the
// message ProbeNext named, provided no other message is consumed in
// between. src may be AnySource and tag AnyTag. It scans with peek, the
// matcher Recv and TryRecv use, so a wildcard probe and the receive after
// it can never disagree about which message is next.
func (c *Comm) ProbeNext(src, tag int) (msgSrc, msgTag int, ok bool) {
	wsrc, wtag := c.worldOf(src), c.recvTag(tag)
	c.box.mu.Lock()
	bkt, idx, ok := c.box.peek(wsrc, wtag, c.ctx)
	if ok {
		msg := &c.box.bySrc[bkt].items[idx]
		msgSrc, msgTag = c.groupOf(msg.src), c.userTag(msg.tag)
	}
	c.box.mu.Unlock()
	if c.rec != nil {
		c.rec.Instant("probe", wsrc, wtag, 0, c.clock, obs.KV{K: "hit", V: boolKV(ok)})
	}
	return msgSrc, msgTag, ok
}

func boolKV(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TryRecv receives a matching message if one is already waiting; ok is
// false when none is pending (it never blocks). The manager of a dynamic
// farm can use it to poll between other duties. A hit counts as a normal
// receive in an attached trace; a miss is recorded as an instant probe.
func TryRecv[T any](c *Comm, src, tag int) (v T, ok bool) {
	wsrc, wtag := c.worldOf(src), c.recvTag(tag)
	simStart := c.clock
	var wallStart int64
	if c.rec != nil {
		wallStart = c.rec.Now()
	}
	c.box.mu.Lock()
	msg, ok := c.box.match(wsrc, wtag, c.ctx)
	c.box.mu.Unlock()
	if !ok {
		if c.rec != nil {
			c.rec.Instant("probe", wsrc, wtag, 0, c.clock, obs.KV{K: "hit", V: 0})
		}
		return v, false
	}
	if msg.arrive > c.clock {
		c.clock = msg.arrive
	}
	if c.rec != nil {
		c.rec.Recv(msg.src, msg.tag, int64(msg.bytes), simStart, c.clock, wallStart)
	}
	return msg.payload.(T), true
}
