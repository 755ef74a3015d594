package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// size selects a workload's instance: the paper's, or the reduced one
// the smoke test runs.
type size int

const (
	fullSize size = iota
	smokeSize
)

type runOpts struct {
	seed    uint64
	measure time.Duration // measuring time of the solve loop
	traced  bool
	size    size
	// minSolves is the fewest timed solves a run makes (pairs of solves
	// in a traced run), however long they take.
	minSolves int
	// root is the repository checkout the inputs are read from; tmp is
	// the directory scratch files (CSVs, sockets) go under.
	root, tmp string
	// plant corrupts the reference each check compares against, so every
	// solve must be reported as a failed operation (smoke test only).
	plant bool
}

// workload is one benchmark scenario. setup builds the inputs and any
// world or mesh; everything the timed solve needs exists when it returns.
type workload struct {
	why    string
	params func(sz size) map[string]any
	setup  func(o runOpts) (instance, error)
	// procs is the process's GOMAXPROCS while the workload's solves
	// run; 0 means 1.
	procs int
	// minSolves, when set, replaces the default of 3 as the fewest
	// timed solves of a run; maxSolves, when set, caps them (pairs of
	// solves in a traced run), however short they are.
	minSolves, maxSolves int
}

func (w workload) gomaxprocs() int { return max(w.procs, 1) }

// instance is a set-up workload.
type instance interface {
	// solve is the timed call into the workload's entry point. With
	// traced set it runs on the world or context attach observed.
	solve(traced bool) error
	// check verifies the last solve's output against a reference
	// computed outside the timed region.
	check() error
	// plant corrupts the reference check compares against.
	plant()
	// attach gives the next traced solve fresh obs recorders.
	attach() error
	// collect adds the last traced solve's per-layer values to s.
	collect(s samples) error
	// reference adds the layer measurements that are taken outside the
	// workload's own solve (serial baselines, bring-up, barrier cost).
	reference(s samples) error
	close() error
}

// batched is implemented by workloads whose solve makes several calls
// into the entry point, one per input set. Costs are reported per call.
type batched interface{ calls() int }

// simClock is implemented by the cluster workloads: the simulated
// makespan of the last untraced solve under the α+βn cost model.
type simClock interface{ simTime() float64 }

// samples collects repeated observations of per-layer metrics.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// report is a finished run: the result line plus notes printed above it.
type report struct {
	result
	notes []string
}

// usage is one reading of the process's cost counters.
type usage struct {
	wall  time.Time
	cpu   float64 // user+sys seconds, self plus waited-for children
	alloc uint64  // cumulative heap bytes allocated
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := rusage(syscall.RUSAGE_SELF) + rusage(syscall.RUSAGE_CHILDREN)
	return usage{wall: time.Now(), cpu: cpu, alloc: ms.TotalAlloc}
}

func rusage(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)*1e-6 }

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// solveCost is the cost of one timed solve.
type solveCost struct{ wall, cpu, allocMB float64 }

func since(a usage) solveCost {
	b := readUsage()
	return solveCost{
		wall:    b.wall.Sub(a.wall).Seconds(),
		cpu:     b.cpu - a.cpu,
		allocMB: float64(b.alloc-a.alloc) / (1 << 20),
	}
}

// setUp builds the workload several times and keeps the last instance,
// so that setup_s is a median rather than one sample. Cheap set-ups are
// repeated more often, up to a fixed time: one that takes tens of
// microseconds varies by a factor of three from one repetition to the
// next, so it needs hundreds for a steady median.
func setUp(w workload, o runOpts) (instance, []float64, error) {
	const minReps, maxReps, budget = 5, 401, 500 * time.Millisecond
	var times []float64
	var inst instance
	start := time.Now()
	for len(times) < minReps || (len(times) < maxReps && time.Since(start) < budget) {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC() // so one repetition's garbage is not collected in the next
		t0 := time.Now()
		var err error
		if inst, err = w.setup(o); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, times, nil
}

// measure runs one workload: set-up, then timed solves, each checked
// outside its timed region, for the measuring time.
func measure(w workload, o runOpts) (*report, error) {
	if o.minSolves <= 0 {
		o.minSolves = w.minSolves
	}
	if o.minSolves <= 0 {
		o.minSolves = 3
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.tmp, "run")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	o.tmp = tmp

	inst, setupTimes, err := setUp(w, o)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	// Set-up runs with the default GOMAXPROCS, the solves with the
	// workload's; README.md says why.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.gomaxprocs()))
	if o.plant {
		inst.plant()
	}
	rep := &report{result: result{Metrics: map[string]metric{}}}
	timed := func(traced bool) (solveCost, error) {
		rep.Attempted++
		if traced {
			if err := inst.attach(); err != nil {
				return solveCost{}, err
			}
		}
		// Each solve starts from a collected heap, so it does not pay for
		// collecting its predecessor's garbage.
		runtime.GC()
		u := readUsage()
		err := inst.solve(traced)
		c := since(u)
		if b, ok := inst.(batched); ok {
			n := float64(b.calls())
			c.wall, c.cpu, c.allocMB = c.wall/n, c.cpu/n, c.allocMB/n
		}
		if err == nil {
			err = inst.check()
		}
		if err != nil {
			rep.Failed++
			rep.notes = append(rep.notes, "failed: "+err.Error())
		}
		return c, nil
	}

	// more reports whether another solve fits in the measuring time,
	// taking the last solve's wall time as what the next one will take,
	// so that a run of long solves does not overshoot by most of one.
	more := func(done int, start time.Time, last time.Duration) bool {
		if w.maxSolves > 0 && done >= w.maxSolves {
			return false
		}
		return done < o.minSolves || time.Since(start)+last <= o.measure
	}

	if !o.traced {
		var wall, cpu, alloc, sim []float64
		start, last := time.Now(), time.Duration(0)
		for more(len(wall), start, last) {
			t0 := time.Now()
			c, err := timed(false)
			if err != nil {
				return nil, err
			}
			last = time.Since(t0)
			wall, cpu, alloc = append(wall, c.wall), append(cpu, c.cpu), append(alloc, c.allocMB)
			if sc, ok := inst.(simClock); ok {
				sim = append(sim, sc.simTime())
			}
		}
		vals := map[string]float64{
			"setup_s":     median(setupTimes),
			"solve_s":     trimmedMean(wall),
			"cpu_s":       trimmedMean(cpu),
			"alloc_mb":    trimmedMean(alloc),
			"peak_rss_mb": peakRSSMB(),
		}
		for _, m := range endToEndMetrics {
			rep.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		rep.notes = append(rep.notes, fmt.Sprintf("solves %d; solve_s quartiles %.6g %.6g %.6g",
			len(wall), quantile(wall, 0.25), median(wall), quantile(wall, 0.75)))
		if len(sim) > 0 {
			rep.notes = append(rep.notes, fmt.Sprintf("sim_s %.9g s (simulated makespan, α+βn cost model)", median(sim)))
		}
	} else {
		s := samples{}
		if err := inst.reference(s); err != nil {
			return nil, fmt.Errorf("layer reference: %w", err)
		}
		// Untraced and traced solves alternate so that drift on the host
		// affects both sides of obs.overhead alike.
		var plain, traced []float64
		start, last := time.Now(), time.Duration(0)
		for more(len(traced), start, last) {
			t0 := time.Now()
			c, err := timed(false)
			if err != nil {
				return nil, err
			}
			plain = append(plain, c.wall)
			if c, err = timed(true); err != nil {
				return nil, err
			}
			traced = append(traced, c.wall)
			if err := inst.collect(s); err != nil {
				return nil, fmt.Errorf("collect: %w", err)
			}
			last = time.Since(t0)
		}
		s.add("obs.overhead", median(traced)/median(plain)-1)
		for _, m := range layerMetrics {
			// A layer the workload does not exercise did no work in it.
			v := 0.0
			if xs := s[m.name]; len(xs) > 0 {
				v = median(xs)
			}
			rep.Metrics[m.name] = metric{v, m.unit}
		}
		rep.notes = append(rep.notes, fmt.Sprintf("pairs of solves %d; solve_s median untraced %.6g, traced %.6g",
			len(traced), median(plain), median(traced)))
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// trimmedMean is the mean of xs without its lowest and highest tenth.
// It is steadier from run to run than the median when the solve times
// of a run fall into two modes, as they do where scheduling decides
// which goroutine runs where, and unlike the mean it ignores a stall.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 10
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
