package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// splitDevices runs an SPMD body on a world of p ranks on each device —
// in-process and over unix sockets — failing the test on any rank's error.
var splitDevices = []struct {
	name string
	run  func(t *testing.T, p int, opts Options, f func(c *Comm))
}{
	{"inproc", func(t *testing.T, p int, opts Options, f func(c *Comm)) {
		t.Helper()
		if err := NewWorldOpts(p, opts).Run(f); err != nil {
			t.Fatal(err)
		}
	}},
	{"net", func(t *testing.T, p int, opts Options, f func(c *Comm)) {
		t.Helper()
		errs, _ := runNetWorld(t, "unix", netAddrs(t, p), opts, f)
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
	}},
}

func add[T int | float64](a, b T) T { return a + b }

func TestSplitGroupsByColor(t *testing.T) {
	const P = 6
	w := NewWorld(P)
	var mu sync.Mutex
	groupOf := map[int][2]int{} // parent rank -> (group size, group rank)
	err := w.Run(func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		mu.Lock()
		groupOf[c.Rank()] = [2]int{sub.Size(), sub.Rank()}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, gs := range groupOf {
		if gs[0] != 3 {
			t.Errorf("rank %d group size %d", rank, gs[0])
		}
		if want := rank / 2; gs[1] != want {
			t.Errorf("rank %d group rank %d want %d", rank, gs[1], want)
		}
	}
}

func TestSplitKeyOrdersGroup(t *testing.T) {
	const P = 4
	w := NewWorld(P)
	err := w.Run(func(c *Comm) {
		// Reverse ordering via key.
		sub := c.Split(0, -c.Rank())
		if want := P - 1 - c.Rank(); sub.Rank() != want {
			t.Errorf("rank %d got group rank %d want %d", c.Rank(), sub.Rank(), want)
		}
		// Group rank i is world rank P-1-i.
		order := Allgather(sub, c.Rank())
		for i, r := range order {
			if r != P-1-i {
				t.Errorf("rank %d: group order %v, want descending world ranks", c.Rank(), order)
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitNegativeColorOptsOut(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) {
		color := 0
		if c.Rank() == 2 {
			color = -1
		}
		sub := c.Split(color, 0)
		if c.Rank() == 2 {
			if sub != nil {
				t.Error("negative color returned a communicator")
			}
			return
		}
		if sub.Size() != 2 {
			t.Errorf("group size %d", sub.Size())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubCollectives(t *testing.T) {
	const P = 8
	w := NewWorld(P)
	err := w.Run(func(c *Comm) {
		sub := c.Split(c.Rank()/4, c.Rank()) // two groups of 4
		// Allreduce within the group: sum of parent ranks.
		got := Allreduce(sub, c.Rank(), add[int])
		want := 0 + 1 + 2 + 3
		if c.Rank() >= 4 {
			want = 4 + 5 + 6 + 7
		}
		if got != want {
			t.Errorf("rank %d group allreduce %d want %d", c.Rank(), got, want)
		}
		// Bcast from the group root, world rank 0 or 4.
		v := Bcast(sub, 0, c.Rank()*10)
		if wantB := c.Rank() / 4 * 40; v != wantB {
			t.Errorf("rank %d group bcast %d want %d", c.Rank(), v, wantB)
		}
		// Gather onto group rank 1.
		all := Gather(sub, 1, c.Rank())
		if sub.Rank() == 1 {
			if len(all) != 4 {
				t.Errorf("gather size %d", len(all))
			}
		} else if all != nil {
			t.Error("non-root gather non-nil")
		}
		sub.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubP2PDoesNotCollideWithParent(t *testing.T) {
	const P = 4
	w := NewWorld(P)
	err := w.Run(func(c *Comm) {
		sub := c.Split(0, c.Rank())
		if c.Rank() == 0 {
			Send(c, 1, 5, "parent")
			Send(sub, 1, 5, "sub")
		}
		if c.Rank() == 1 {
			// Receive in the opposite order: tags must not collide.
			got := Recv[string](sub, 0, 5)
			if got != "sub" {
				t.Errorf("sub recv %q", got)
			}
			got = Recv[string](c, 0, 5)
			if got != "parent" {
				t.Errorf("parent recv %q", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalReduction(t *testing.T) {
	// The §2 pattern: local reduction within each "node" (group), then a
	// global reduction of the group roots.
	const P = 8
	w := NewWorld(P)
	var result int
	err := w.Run(func(c *Comm) {
		node := c.Split(c.Rank()/4, c.Rank())
		local := Reduce(node, 0, 1, add[int])
		leaders := c.Split(map[bool]int{true: 0, false: -1}[node.Rank() == 0], c.Rank())
		if node.Rank() == 0 {
			total := Allreduce(leaders, local, add[int])
			if c.Rank() == 0 {
				result = total
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if result != P {
		t.Errorf("hierarchical reduction = %d, want %d", result, P)
	}
}

func TestSendRecvExchange(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		partner := 1 - c.Rank()
		got := SendRecv(c, partner, 3, c.Rank()*100)
		if got != partner*100 {
			t.Errorf("rank %d exchanged %d", c.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubTagValidation(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		sub := c.Split(0, c.Rank())
		if c.Rank() == 0 {
			defer func() {
				p := recover()
				if p == nil {
					t.Error("oversized group tag accepted")
					return
				}
				if msg := fmt.Sprint(p); !strings.Contains(msg, "outside [0, 1048576)") {
					t.Errorf("panic does not name the tag range: %s", msg)
				}
			}()
			Send(sub, 1, 1<<20, "x")
		}
	})
	// The panic on rank 0 is recovered inside the rank body, so Run
	// should not report an error.
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectivesOnSplitMatchBaseline runs the nine-collective property
// script on Split groups instead of the world: for world sizes 1..9, on
// parity groups and on thirds ordered by descending world rank, every
// rank must observe exactly the ground truth of a world the size of its
// group — under both algorithm sets, with and without Verify, on both
// devices.
func TestCollectivesOnSplitMatchBaseline(t *testing.T) {
	splits := []struct {
		name       string
		color, key func(r int) int
	}{
		{"mod2", func(r int) int { return r % 2 }, func(r int) int { return r }},
		{"div3", func(r int) int { return r / 3 }, func(r int) int { return -r }},
	}
	for _, dev := range splitDevices {
		for p := 1; p <= 9; p++ {
			for _, sp := range splits {
				for _, v := range scriptVariants {
					t.Run(fmt.Sprintf("%s/P%d/%s/%s", dev.name, p, sp.name, v.name), func(t *testing.T) {
						got := make([]perRank, p)
						size, rank := make([]int, p), make([]int, p)
						dev.run(t, p, v.opts, func(c *Comm) {
							sub := c.Split(sp.color(c.Rank()), sp.key(c.Rank()))
							size[c.Rank()], rank[c.Rank()] = sub.Size(), sub.Rank()
							runCollectiveScript(sub, &got[c.Rank()])
						})
						for r := range got {
							if want := wantPerRank(size[r])[rank[r]]; !reflect.DeepEqual(got[r], want) {
								t.Errorf("world rank %d (group rank %d of %d):\n got %+v\nwant %+v",
									r, rank[r], size[r], got[r], want)
							}
						}
					})
				}
			}
		}
	}
}

// TestSplitNested splits a split: nodes of four, then pairs inside each
// node ordered by descending node rank. Collectives on all three levels
// interleave, and the pairs see the right members in the right order.
func TestSplitNested(t *testing.T) {
	const P = 8
	for _, dev := range splitDevices {
		for _, v := range scriptVariants {
			t.Run(dev.name+"/"+v.name, func(t *testing.T) {
				members := make([][]int, P)
				sums := make([]int, P)
				dev.run(t, P, v.opts, func(c *Comm) {
					node := c.Split(c.Rank()/4, c.Rank())
					pair := node.Split(node.Rank()%2, -node.Rank())
					node.Barrier()
					members[c.Rank()] = Allgather(pair, c.Rank())
					sums[c.Rank()] = Allreduce(pair, c.Rank(), add[int])
					c.Barrier()
				})
				for r := 0; r < P; r++ {
					lo := r/4*4 + r%2 // the pair's lower world rank
					if want := []int{lo + 2, lo}; !reflect.DeepEqual(members[r], want) {
						t.Errorf("rank %d: pair members %v, want %v", r, members[r], want)
					}
					if want := 2*lo + 2; sums[r] != want {
						t.Errorf("rank %d: pair sum %d, want %d", r, sums[r], want)
					}
				}
			})
		}
	}
}

// TestSplitAsymmetricContexts pins agreed context ids. The even ranks
// split their half twice while the odd ranks split theirs once, so a
// per-rank counter would hand the next world split different contexts
// on the two halves, and rank 1's message to rank 0 would land in rank 0's
// second inner communicator. Split agrees on the maximum instead.
func TestSplitAsymmetricContexts(t *testing.T) {
	const P = 4
	for _, dev := range splitDevices {
		for _, v := range scriptVariants {
			t.Run(dev.name+"/"+v.name, func(t *testing.T) {
				sums := make([]int, P)
				dev.run(t, P, v.opts, func(c *Comm) {
					half := c.Split(c.Rank()%2, c.Rank())
					inner := []*Comm{half, half.Split(0, half.Rank())}
					if c.Rank()%2 == 0 {
						inner = append(inner, half.Split(0, half.Rank()))
					}
					g := c.Split(0, c.Rank())
					if ctxs := Allgather(c, g.ctx); slices.Min(ctxs) != slices.Max(ctxs) {
						t.Errorf("rank %d: world split got contexts %v across ranks", c.Rank(), ctxs)
						return // every rank sees the same ctxs and bails out together
					}
					switch c.Rank() {
					case 1:
						Send(g, 0, 7, "g")
						Send(c, 0, 99, struct{}{}) // marker: g's message is ahead of it
					case 0:
						Recv[struct{}](c, 1, 99)
						for i, x := range inner {
							if got, ok := TryRecv[string](x, AnySource, AnyTag); ok {
								t.Errorf("inner communicator %d received %q sent on the world split", i, got)
							}
						}
						if got, src := RecvFrom[string](g, AnySource, AnyTag); got != "g" || src != 1 {
							t.Errorf("world split received %q from %d, want \"g\" from 1", got, src)
						}
					}
					for _, x := range inner {
						x.Barrier()
					}
					sums[c.Rank()] = Allreduce(g, c.Rank(), add[int])
				})
				for r, s := range sums {
					if s != P*(P-1)/2 {
						t.Errorf("rank %d: world split Allreduce %d, want %d", r, s, P*(P-1)/2)
					}
				}
			})
		}
	}
}

// TestSplitWildcardIsolation: with parent, sibling and collective traffic
// already waiting in rank 0's mailbox, AnyTag/AnySource receives on a
// split communicator match only that communicator's user messages and
// report group ranks.
func TestSplitWildcardIsolation(t *testing.T) {
	const P = 4
	for _, dev := range splitDevices {
		for _, v := range scriptVariants {
			t.Run(dev.name+"/"+v.name, func(t *testing.T) {
				dev.run(t, P, v.opts, func(c *Comm) {
					a := c.Split(c.Rank()%2, c.Rank())  // {0, 2}: world 2 is a-rank 1
					b := c.Split(c.Rank()/2, -c.Rank()) // {1, 0}: world 1 is b-rank 0
					switch c.Rank() {
					case 2:
						Send(c, 0, 5, "world")
						Bcast(a, 1, "coll") // rank 0 has not entered it yet
						Send(a, 0, 3, "a")
						Send(c, 0, 99, struct{}{})
					case 1:
						Send(b, 1, 5, "b")
						Send(c, 0, 99, struct{}{})
					case 0:
						// After the markers everything above is pending here.
						Recv[struct{}](c, 2, 99)
						Recv[struct{}](c, 1, 99)
						if src, tag, ok := a.ProbeNext(AnySource, AnyTag); !ok || src != 1 || tag != 3 {
							t.Errorf("a.ProbeNext = (%d, %d, %v), want (1, 3, true)", src, tag, ok)
						}
						if got, src := RecvFrom[string](a, AnySource, AnyTag); got != "a" || src != 1 {
							t.Errorf("a received %q from %d, want \"a\" from 1", got, src)
						}
						if got, ok := TryRecv[string](a, AnySource, AnyTag); ok {
							t.Errorf("a's wildcard matched foreign traffic %q", got)
						}
						if got := Bcast(a, 1, ""); got != "coll" {
							t.Errorf("a Bcast got %q", got)
						}
						if got, src := RecvFrom[string](b, AnySource, AnyTag); got != "b" || src != 0 {
							t.Errorf("b received %q from %d, want \"b\" from 0", got, src)
						}
						if got, ok := TryRecv[string](b, AnySource, AnyTag); ok {
							t.Errorf("b's wildcard matched foreign traffic %q", got)
						}
						if got, src := RecvFrom[string](c, AnySource, AnyTag); got != "world" || src != 2 {
							t.Errorf("world received %q from %d, want \"world\" from 2", got, src)
						}
					}
				})
			})
		}
	}
}
