package main

import (
	"bytes"
	"strings"

	"repro/internal/obs"
)

// layerMetrics are reported by every traced run. A workload reports 0 for
// a layer it does not exercise. README.md maps each one to the end-to-end
// metric and workload it should move.
var layerMetrics = []metricDef{
	{"mapreduce.map_s", "s"},
	{"mapreduce.combine_s", "s"},
	{"mapreduce.collate_s", "s"},
	{"mapreduce.reduce_s", "s"},
	{"mapreduce.pairs", "count"},
	{"mapreduce.shuffled_pairs", "count"},
	{"cluster.msgs", "count"},
	{"cluster.bytes", "B"},
	{"cluster.recv_wait_s", "s"},
	{"cluster.coll_s", "s"},
	{"cluster.busy_imbalance", "ratio"},
	{"cluster.sim_s", "s"},
	{"net.tx.frames", "count"},
	{"net.tx.bytes", "B"},
	{"net.tx_s", "s"},
	{"net.rx.frames", "count"},
	{"net.rx.bytes", "B"},
	{"net.rx_s", "s"},
	{"net.frame_overhead", "ratio"},
	{"net.mesh_s", "s"},
	{"traffic.compute_s", "s"},
	{"rdd.tasks", "count"},
	{"rdd.shuffles", "count"},
	{"rdd.shuffled_records", "count"},
	{"rdd.action_s", "s"},
	{"pipeline.ingest_s", "s"},
	{"pipeline.clean_s", "s"},
	{"pipeline.dimensions_s", "s"},
	{"pipeline.rates_s", "s"},
	{"pipeline.offenses_s", "s"},
	{"pipeline.monthly_s", "s"},
	{"heat.compute_s", "s"},
	{"locale.barrier_ns", "ns"},
	{"locale.barrier_waits", "count"},
	{"analysis.load_s", "s"},
	{"analysis.types_s", "s"},
	{"analysis.rules_s", "s"},
	{"analysis.child_cpu_s", "s"},
	{"analysis.units", "count"},
	{"analysis.lines", "count"},
	{"obs.overhead", "ratio"},
	{"obs.events", "count"},
}

// opWallS sums, over the metrics document's run-level ops, the wall
// seconds of every op the predicate accepts.
func opWallS(m *obs.Metrics, match func(op string) bool) float64 {
	var ns int64
	for _, op := range m.Ops {
		if match(op.Op) {
			ns += op.WallNs
		}
	}
	return float64(ns) * 1e-9
}

func opNamed(name string) func(string) bool {
	return func(op string) bool { return op == name }
}

func opPrefixed(prefix string) func(string) bool {
	return func(op string) bool { return strings.HasPrefix(op, prefix) }
}

func findOp(m *obs.Metrics, name string) obs.OpMetrics {
	for _, op := range m.Ops {
		if op.Op == name {
			return op
		}
	}
	return obs.OpMetrics{}
}

// addClusterLayers adds the transport and collective metrics of one
// traced cluster solve.
func addClusterLayers(s samples, m *obs.Metrics) {
	var recvWaitNs int64
	for _, r := range m.PerRank {
		recvWaitNs += r.RecvWaitWallNs
	}
	s.add("cluster.msgs", float64(m.TotalMsgs))
	s.add("cluster.bytes", float64(m.TotalBytes))
	s.add("cluster.recv_wait_s", float64(recvWaitNs)*1e-9)
	s.add("cluster.coll_s", opWallS(m, func(op string) bool { return obs.CollectiveOps[op] }))
	s.add("cluster.busy_imbalance", m.BusyImbalance)
	s.add("cluster.sim_s", m.SimMakespan)
	s.add("obs.events", float64(m.Events))
}

// mergedMetrics merges the metrics documents of the per-process traces
// of a net-device world into one run-level document, as obs-merge does
// for a launched world.
func mergedMetrics(traces []*obs.Trace) (*obs.Metrics, error) {
	docs := make([][]byte, len(traces))
	for i, t := range traces {
		var buf bytes.Buffer
		if err := t.WriteMetrics(&buf); err != nil {
			return nil, err
		}
		docs[i] = buf.Bytes()
	}
	return obs.MergeMetrics(docs)
}
