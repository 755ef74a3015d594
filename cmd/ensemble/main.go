// Command ensemble runs the hyper-parameter-optimisation assignment
// (paper §7): train an HPO grid of small networks on synthetic digits as
// independent tasks over simulated cluster ranks, ensemble the results,
// and report accuracy plus uncertainty separation:
//
//	ensemble -members 10 -ranks 4 -dynamic
//	ensemble -cull 0.5          # the kill-the-worst variation
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/ensemble"
	"repro/internal/mnistgen"
	"repro/internal/obs"
)

func main() {
	trainN := flag.Int("train", 2500, "training images")
	members := flag.Int("members", 8, "HPO grid size / ensemble members")
	epochs := flag.Int("epochs", 6, "training epochs per member")
	ranks := flag.Int("ranks", 4, "simulated cluster ranks")
	dynamic := flag.Bool("dynamic", false, "manager-worker task farm instead of static blocks")
	cull := flag.Float64("cull", 0, "fraction of worst members to kill after a probe epoch")
	seed := flag.Uint64("seed", 7, "data and HPO seed")
	saveBest := flag.String("save", "", "write the best member's model to this file")
	monitor := flag.Bool("monitor", false, "record per-epoch validation accuracy (runs locally)")
	obsCLI := obs.BindCLI()
	flag.Parse()

	ds := mnistgen.Generate(*seed, *trainN)
	train, val := ds.Split(*trainN * 4 / 5)
	cfgs := ensemble.Grid(
		[][]int{{16}, {24}, {32}},
		[]float64{0.1, 0.05},
		[]float64{0.9, 0.5},
		*epochs, 32, *seed+100)
	if *members < len(cfgs) {
		cfgs = cfgs[:*members]
	}
	fmt.Printf("HPO grid: %d configs, train=%d val=%d\n", len(cfgs), train.Len(), val.Len())

	start := time.Now()
	var trace *obs.Trace
	var ens *ensemble.Ensemble
	if *monitor {
		e, trajs := ensemble.TrainWithMonitor(train, val, cfgs, 0, 0)
		ens = e
		for i, tr := range trajs {
			fmt.Printf("member %d accuracy per epoch: ", i)
			for _, a := range tr.ValAccuracy {
				fmt.Printf("%.3f ", a)
			}
			fmt.Println()
		}
	} else if *cull > 0 {
		ens = ensemble.TrainWithCulling(train, val, cfgs, 0, 1, *cull)
		fmt.Printf("culling kept %d of %d members\n", len(ens.Members), len(cfgs))
	} else {
		// In-process world of -ranks goroutines, or — under `peachy
		// launch` — this process's single rank of a multi-process world.
		ex, err := cluster.OpenExhibit(obsCLI, *ranks)
		if err != nil {
			fatal(err)
		}
		defer ex.Close()
		trace = ex.Trace
		world := ex.World
		e, report, err := ensemble.TrainDistributed(world, train, val, cfgs, *dynamic)
		if err != nil {
			fatal(err)
		}
		ens = e
		if ens != nil {
			mode := "static"
			if *dynamic {
				mode = "dynamic"
			}
			fmt.Printf("distribution: %s over %d ranks, per-rank loads %v (imbalance %.2f)\n",
				mode, world.Size(), report.PerRank, report.Imbalance())
		}
	}
	fmt.Printf("training wall time: %.2fs\n", time.Since(start).Seconds())
	if err := obsCLI.Emit(trace); err != nil {
		fatal(err)
	}
	if ens == nil {
		// Launched non-lead rank: the gathered ensemble lives in the
		// rank-0 process, which does all the reporting.
		return
	}

	best := ens.Best()
	fmt.Printf("best member: %s -> val accuracy %.3f\n", best.Cfg, best.ValAccuracy)
	fmt.Printf("ensemble val accuracy: %.3f\n", ens.Evaluate(val))

	clean := mnistgen.Generate(*seed+999, 300)
	ood := mnistgen.GenerateOOD(*seed+999, 300)
	fmt.Printf("mean predictive entropy: clean %.3f nats, OOD %.3f nats\n",
		ens.MeanUncertainty(clean), ens.MeanUncertainty(ood))

	if *saveBest != "" {
		if err := best.Net.Save(*saveBest); err != nil {
			fatal(err)
		}
		fmt.Printf("best model saved to %s\n", *saveBest)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ensemble:", err)
	os.Exit(1)
}
