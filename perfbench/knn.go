package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dataio"
	"repro/internal/knn"
	"repro/internal/obs"
)

type knnSize struct{ n, q, d, k, classes int }

func knnInstance(sz size) knnSize {
	if sz == smokeSize {
		return knnSize{n: 400, q: 160, d: 8, k: 5, classes: 4}
	}
	return knnSize{n: 5000, q: 5000, d: 40, k: 15, classes: 4} // paper §2
}

// knnSets is how many data sets, each drawn from its own stream of the
// seed, one timed solve runs through. The class geometry decides how much
// the annulus index prunes, so one data set's cost depends on its seed:
// over twelve seeds the CPU time of one call ranged from 0.58 s to 0.90 s,
// and with twelve sets a solve, two seeds still differed by 10 %. A batch
// of sixteen averages most of that out.
const knnSets = 16

func knnParams(sz size) map[string]any {
	p := knnInstance(sz)
	return map[string]any{"n": p.n, "q": p.q, "d": p.d, "k": p.k, "classes": p.classes,
		"spread": 4.0, "ranks": 2, "combiner": true, "sets_per_solve": knnSets,
		"check_sample": "every 16th query of every set"}
}

// knnSet is one data set with its last predictions and its reference.
type knnSet struct {
	db      *dataio.Dataset
	queries [][]float64
	pred    []int
	sim     float64
	// want holds knn.SequentialHeap's predictions for the sampled
	// queries, once computed.
	want []int
}

type knnInst struct {
	knnSize
	sets    []*knnSet
	world   *cluster.World   // untraced solves
	tworlds []*cluster.World // traced solves, one per set: Observe cannot be undone
	traces  []*obs.Trace
	// sample indexes the queries of each set checked against
	// knn.SequentialHeap.
	sample []int
}

func setupKNN(o runOpts) (instance, error) {
	p := knnInstance(o.size)
	inst := &knnInst{knnSize: p, world: cluster.NewWorld(2)}
	for v := 0; v < knnSets; v++ {
		full := dataio.GaussianMixture(derive(derive(o.seed, 1), uint64(v)), p.n+p.q, p.d, p.classes, 4.0)
		db, rest := full.Split(p.n)
		inst.sets = append(inst.sets, &knnSet{db: db, queries: rest.Points})
	}
	for i := 0; i < p.q/16; i++ {
		inst.sample = append(inst.sample, 16*i)
	}
	return inst, nil
}

// solve runs knn.MapReduce once on every set; calls reports the count, so
// that the costs are reported per call.
func (k *knnInst) solve(traced bool) error {
	for v, set := range k.sets {
		w := k.world
		if traced {
			w = k.tworlds[v]
		}
		w.ResetStats()
		pred, err := knn.MapReduce(w, set.db, set.queries, k.k, true)
		set.pred, set.sim = pred, w.SimTime()
		if err != nil {
			return err
		}
	}
	return nil
}

func (k *knnInst) calls() int { return len(k.sets) }

func (k *knnInst) simTime() float64 {
	sum := 0.0
	for _, set := range k.sets {
		sum += set.sim
	}
	return sum / float64(len(k.sets))
}

func (k *knnInst) expected(set *knnSet) []int {
	if set.want == nil {
		qs := make([][]float64, len(k.sample))
		for i, qi := range k.sample {
			qs[i] = set.queries[qi]
		}
		set.want = knn.SequentialHeap(set.db, qs, k.k)
	}
	return set.want
}

func (k *knnInst) check() error {
	for v, set := range k.sets {
		if len(set.pred) != len(set.queries) {
			return fmt.Errorf("knn-mr: set %d: %d predictions for %d queries", v, len(set.pred), len(set.queries))
		}
		want, bad := k.expected(set), 0
		for i, qi := range k.sample {
			if set.pred[qi] != want[i] {
				bad++
			}
		}
		if bad > 0 {
			return fmt.Errorf("knn-mr: set %d: %d of %d sampled predictions differ from SequentialHeap",
				v, bad, len(k.sample))
		}
	}
	return nil
}

func (k *knnInst) plant() {
	want := k.expected(k.sets[0])
	want[0] = (want[0] + 1) % k.classes
}

func (k *knnInst) attach() error {
	if k.tworlds == nil {
		for range k.sets {
			k.tworlds = append(k.tworlds, cluster.NewWorld(2))
		}
	}
	k.traces = k.traces[:0]
	for _, w := range k.tworlds {
		k.traces = append(k.traces, w.Observe())
	}
	return nil
}

// collect adds one sample per set, so that every value is per call.
func (k *knnInst) collect(s samples) error {
	for _, t := range k.traces {
		m := t.Metrics()
		s.add("mapreduce.map_s", opWallS(m, opNamed("mr.map")))
		s.add("mapreduce.combine_s", opWallS(m, opNamed("mr.combine")))
		s.add("mapreduce.collate_s", opWallS(m, opNamed("mr.collate")))
		s.add("mapreduce.reduce_s", opWallS(m, opNamed("mr.reduce")))
		var pairs, shuffled int64
		for _, e := range t.Events() {
			for _, kv := range e.KV {
				switch {
				case e.Op == "mr.map" && kv.K == "pairs":
					pairs += kv.V
				case e.Op == "mr.collate" && kv.K == "pairs":
					shuffled += kv.V
				}
			}
		}
		s.add("mapreduce.pairs", float64(pairs))
		s.add("mapreduce.shuffled_pairs", float64(shuffled))
		addClusterLayers(s, m)
	}
	return nil
}

func (k *knnInst) reference(samples) error { return nil }

func (k *knnInst) close() error {
	for _, w := range append([]*cluster.World{k.world}, k.tworlds...) {
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}
