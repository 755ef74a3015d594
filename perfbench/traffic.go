package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/traffic"
)

type trafficSize struct {
	cfg   traffic.Config
	steps int // per solve
}

func trafficInstance(seed uint64, sz size) trafficSize {
	cfg := traffic.Config{Cars: 200, RoadLen: 1000, VMax: 5, P: 0.13, Seed: derive(seed, 2)} // Fig 3
	if sz == smokeSize {
		return trafficSize{cfg: cfg, steps: 200}
	}
	return trafficSize{cfg: cfg, steps: 20000}
}

func trafficParams(sz size) map[string]any {
	p := trafficInstance(0, sz)
	return map[string]any{"cars": p.cfg.Cars, "road": p.cfg.RoadLen, "vmax": p.cfg.VMax,
		"p": p.cfg.P, "steps_per_solve": p.steps, "ranks": 2, "device": "net (unix sockets, in one process)"}
}

type trafficInst struct {
	trafficSize
	dir      string
	worlds   []*cluster.World // untraced solves
	tworlds  []*cluster.World // traced solves: Observe cannot be undone
	traces   []*obs.Trace
	got      uint64
	want     uint64 // RunSerial's fingerprint, once haveWant
	sim      float64
	haveWant bool
}

// netMesh brings up a 2-rank net-device world whose ranks are both in
// this process, joined over unix sockets in a fresh directory under dir.
func netMesh(dir string) ([]*cluster.World, error) {
	sock, err := os.MkdirTemp(dir, "mesh")
	if err != nil {
		return nil, err
	}
	addrs := []string{filepath.Join(sock, "0.s"), filepath.Join(sock, "1.s")}
	worlds := make([]*cluster.World, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for r := range worlds {
		go func(r int) {
			defer wg.Done()
			worlds[r], errs[r] = cluster.NewNetWorld(cluster.NetConfig{
				Size: 2, Rank: r, Network: "unix", Addrs: addrs, DialTimeout: 10 * time.Second,
			}, cluster.DefaultOptions())
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			closeWorlds(worlds)
			return nil, fmt.Errorf("net world rank %d: %w", r, err)
		}
	}
	return worlds, nil
}

func closeWorlds(worlds []*cluster.World) error {
	var first error
	for _, w := range worlds {
		if w == nil {
			continue
		}
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func setupTraffic(o runOpts) (instance, error) {
	worlds, err := netMesh(o.tmp)
	if err != nil {
		return nil, err
	}
	return &trafficInst{trafficSize: trafficInstance(o.seed, o.size), dir: o.tmp, worlds: worlds}, nil
}

// solve advances a fresh simulation by the solve's steps on both ranks of
// the net world; rank 0's copy receives the gathered final state.
func (t *trafficInst) solve(traced bool) error {
	worlds := t.worlds
	if traced {
		worlds = t.tworlds
	}
	sims := make([]*traffic.Sim, len(worlds))
	for r := range sims {
		s, err := traffic.New(t.cfg)
		if err != nil {
			return err
		}
		sims[r] = s
		worlds[r].ResetStats()
	}
	errs := make([]error, len(worlds))
	var wg sync.WaitGroup
	wg.Add(len(worlds))
	for r := range worlds {
		go func(r int) {
			defer wg.Done()
			errs[r] = sims[r].RunCluster(worlds[r], t.steps)
		}(r)
	}
	wg.Wait()
	t.got = sims[0].Fingerprint()
	t.sim = max(worlds[0].SimTime(), worlds[1].SimTime())
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *trafficInst) simTime() float64 { return t.sim }

func (t *trafficInst) expected() uint64 {
	if !t.haveWant {
		s, err := traffic.New(t.cfg)
		if err != nil {
			return 0
		}
		s.RunSerial(t.steps)
		t.want, t.haveWant = s.Fingerprint(), true
	}
	return t.want
}

func (t *trafficInst) check() error {
	if want := t.expected(); t.got != want {
		return fmt.Errorf("traffic-net: fingerprint %x, RunSerial gives %x", t.got, want)
	}
	return nil
}

func (t *trafficInst) plant() { t.want = t.expected() ^ 1 }

func (t *trafficInst) attach() error {
	if t.tworlds == nil {
		worlds, err := netMesh(t.dir)
		if err != nil {
			return err
		}
		t.tworlds = worlds
	}
	t.traces = []*obs.Trace{t.tworlds[0].Observe(), t.tworlds[1].Observe()}
	return nil
}

func (t *trafficInst) collect(s samples) error {
	m, err := mergedMetrics(t.traces)
	if err != nil {
		return err
	}
	addClusterLayers(s, m)
	tx, rx := findOp(m, "net.tx"), findOp(m, "net.rx")
	s.add("net.tx.frames", float64(tx.Count))
	s.add("net.tx.bytes", float64(tx.Bytes))
	s.add("net.tx_s", float64(tx.WallNs)*1e-9)
	s.add("net.rx.frames", float64(rx.Count))
	s.add("net.rx.bytes", float64(rx.Bytes))
	s.add("net.rx_s", float64(rx.WallNs)*1e-9)
	if m.TotalBytes > 0 {
		s.add("net.frame_overhead", float64(tx.Bytes)/float64(m.TotalBytes))
	}
	return nil
}

// reference times mesh bring-up on its own and the serial simulation of
// the same steps, the compute share of a solve.
func (t *trafficInst) reference(s samples) error {
	for i := 0; i < 3; i++ {
		start := time.Now()
		worlds, err := netMesh(t.dir)
		if err != nil {
			return err
		}
		s.add("net.mesh_s", time.Since(start).Seconds())
		if err := closeWorlds(worlds); err != nil {
			return err
		}
		sim, err := traffic.New(t.cfg)
		if err != nil {
			return err
		}
		start = time.Now()
		sim.RunSerial(t.steps)
		s.add("traffic.compute_s", time.Since(start).Seconds())
	}
	return nil
}

func (t *trafficInst) close() error {
	return closeWorlds(append(t.worlds, t.tworlds...))
}
