// Command heat runs the 1D heat equation assignment (paper §6) with the
// serial, shared-memory forall, distributed forall, and persistent-task
// coforall solvers:
//
//	heat -nx 1000000 -nt 100 -solver coforall -locales 4
//	heat -solver forall -locales 8 -cores 2
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/heat"
	"repro/internal/locale"
	"repro/internal/obs"
)

func main() {
	nx := flag.Int("nx", 100000, "grid cells (including boundaries)")
	nt := flag.Int("nt", 200, "time steps")
	alpha := flag.Float64("alpha", 0.25, "diffusion number (stable <= 0.5)")
	solver := flag.String("solver", "coforall", "serial | local | forall | coforall")
	locales := flag.Int("locales", 4, "simulated compute nodes")
	cores := flag.Int("cores", 2, "cores per locale")
	workers := flag.Int("workers", 0, "workers for -solver local")
	obsCLI := obs.BindCLI()
	flag.Parse()

	p := heat.Problem{Alpha: *alpha, U0: heat.SinInit(*nx), Steps: *nt}
	sys := locale.NewSystem(*locales, *cores)

	start := time.Now()
	ex, err := cluster.OpenExhibit(obsCLI, 0)
	if err != nil {
		fatal(err)
	}
	defer ex.Close()
	wall := ex.Rec.Now()
	var u []float64
	switch *solver {
	case "serial":
		u, err = heat.SolveSerial(p)
	case "local":
		u, err = heat.SolveLocal(p, *workers)
	case "forall":
		u, err = heat.SolveForall(p, sys)
	case "coforall":
		u, err = heat.SolveCoforall(p, sys)
	default:
		err = fmt.Errorf("unknown solver %q", *solver)
	}
	if err != nil {
		fatal(err)
	}
	ex.Rec.WallSpan("heat."+*solver, wall,
		obs.KV{K: "nx", V: int64(*nx)}, obs.KV{K: "nt", V: int64(*nt)})
	elapsed := time.Since(start)
	if err := obsCLI.Emit(ex.Trace); err != nil {
		fatal(err)
	}

	// The half-sine initial condition decays by an exact analytic factor,
	// so the solution error is measurable without a reference run.
	decay := math.Pow(heat.DecayFactor(*nx, *alpha), float64(*nt))
	maxErr := 0.0
	u0 := heat.SinInit(*nx)
	for i, v := range u {
		if e := math.Abs(v - u0[i]*decay); e > maxErr {
			maxErr = e
		}
	}
	fmt.Printf("solver=%s nx=%d nt=%d locales=%dx%d: %.3fs, max error vs analytic %.2e\n",
		*solver, *nx, *nt, *locales, *cores, elapsed.Seconds(), maxErr)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "heat:", err)
	os.Exit(1)
}
