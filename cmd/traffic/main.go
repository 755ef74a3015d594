// Command traffic runs the Nagel-Schreckenberg assignment (paper §5):
//
//	traffic -cars 200 -len 1000 -p 0.13 -vmax 5 -steps 500 -out fig3.pgm
//	traffic -check-repro            # verify identical output for 1..16 workers
//	traffic -mode per-worker-seeds  # the irreproducible ablation
//	traffic -mode no-random         # the jam-free ablation
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/traffic"
	"repro/internal/viz"
)

func main() {
	cars := flag.Int("cars", 200, "number of cars")
	roadLen := flag.Int("len", 1000, "road length in cells")
	vmax := flag.Int("vmax", 5, "maximum velocity")
	p := flag.Float64("p", 0.13, "dawdling probability")
	steps := flag.Int("steps", 500, "time steps")
	seed := flag.Uint64("seed", 2023, "PRNG seed")
	workers := flag.Int("workers", 0, "parallel workers (0 = all cores)")
	mode := flag.String("mode", "shared-sequence", "shared-sequence | per-worker-seeds | no-random")
	out := flag.String("out", "", "write the space-time diagram to this .pgm file")
	checkRepro := flag.Bool("check-repro", false, "verify serial == parallel for several worker counts")
	grid := flag.Bool("grid", false, "use the grid representation instead of agent-based")
	open := flag.Bool("open", false, "open boundaries: inject at the left, exit at the right")
	alpha := flag.Float64("alpha", 0.3, "injection probability for -open")
	ranks := flag.Int("ranks", 0, "run distributed over this many simulated cluster ranks")
	obsCLI := obs.BindCLI()
	flag.Parse()

	cfg := traffic.Config{Cars: *cars, RoadLen: *roadLen, VMax: *vmax, P: *p, Seed: *seed}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	var m traffic.RNGMode
	switch *mode {
	case "shared-sequence":
		m = traffic.SharedSequence
	case "per-worker-seeds":
		m = traffic.PerWorkerSeeds
	case "no-random":
		m = traffic.NoRandom
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	if *checkRepro {
		ref, _ := traffic.New(cfg)
		ref.RunSerial(*steps)
		want := ref.Fingerprint()
		ok := true
		for _, w := range []int{1, 2, 3, 4, 8, 16} {
			s, _ := traffic.New(cfg)
			s.RunParallel(*steps, w, traffic.SharedSequence)
			match := s.Fingerprint() == want
			ok = ok && match
			fmt.Printf("workers=%2d fingerprint=%016x match=%v\n", w, s.Fingerprint(), match)
		}
		if !ok {
			fatal(fmt.Errorf("reproducibility check FAILED"))
		}
		fmt.Println("reproducibility check PASSED: parallel output identical to serial")
		return
	}

	if *out != "" {
		rows, err := traffic.SpaceTime(cfg, *steps, m)
		if err != nil {
			fatal(err)
		}
		img := viz.NewGray(cfg.RoadLen, len(rows))
		for t, row := range rows {
			for x, v := range row {
				if v > 0 {
					img.Set(x, t, uint8(40*(v-1)))
				}
			}
		}
		if err := viz.SaveRaster(*out, img); err != nil {
			fatal(err)
		}
		fmt.Printf("space-time diagram (%dx%d) written to %s\n", cfg.RoadLen, len(rows), *out)
		return
	}

	if *open {
		s, err := traffic.NewOpen(cfg, *alpha)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		s.Run(*steps)
		fmt.Printf("open road: %d steps in %.3fs, throughput %.3f cars/step, density %.3f\n",
			*steps, time.Since(start).Seconds(), s.Throughput(), s.Density())
		return
	}

	if *grid {
		g, err := traffic.NewGrid(cfg)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		g.RunSerial(*steps)
		fmt.Printf("grid representation: %d steps in %.3fs, fingerprint %016x\n",
			*steps, time.Since(start).Seconds(), g.Fingerprint())
		return
	}

	s, err := traffic.New(cfg)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	// In-process world of -ranks goroutines, or — under `peachy launch` —
	// this process's single rank of a multi-process world; shared memory
	// when -ranks is 0 or less.
	ex, err := cluster.OpenExhibit(obsCLI, max(*ranks, 0))
	if err != nil {
		fatal(err)
	}
	defer ex.Close()
	if world := ex.World; world != nil {
		if err := s.RunCluster(world, *steps); err != nil {
			fatal(err)
		}
		fmt.Printf("cluster: %d messages, %d bytes, simulated time %.2g s\n",
			world.TotalMessages(), world.TotalBytes(), world.SimTime())
	} else {
		wall := ex.Rec.Now()
		s.RunParallel(*steps, *workers, m)
		ex.Rec.WallSpan("traffic.parallel", wall,
			obs.KV{K: "steps", V: int64(*steps)}, obs.KV{K: "cars", V: int64(*cars)})
	}
	elapsed := time.Since(start)
	if err := obsCLI.Emit(ex.Trace); err != nil {
		fatal(err)
	}
	// The gathered final state (and so the fingerprint) exists on rank 0
	// only; in a launched world the other ranks stop here.
	if ex.Lead() {
		fmt.Printf("cars=%d road=%d p=%.2f vmax=%d steps=%d mode=%s: %.3fs\n",
			*cars, *roadLen, *p, *vmax, *steps, m, elapsed.Seconds())
		fmt.Printf("mean velocity %.3f, flow %.3f cars/cell/step, fingerprint %016x\n",
			s.MeanVelocity(), s.Flow(), s.Fingerprint())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traffic:", err)
	os.Exit(1)
}
