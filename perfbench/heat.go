package main

import (
	"fmt"
	"time"

	"repro/internal/heat"
	"repro/internal/locale"
	"repro/internal/prng"
)

type heatSize struct{ nx, steps, locales int }

func heatInstance(sz size) heatSize {
	if sz == smokeSize {
		return heatSize{nx: 256, steps: 200, locales: 2}
	}
	return heatSize{nx: 2048, steps: 40000, locales: 2}
}

// heatAlpha is the diffusion number; the explicit scheme is stable to 0.5.
const heatAlpha = 0.25

func heatParams(sz size) map[string]any {
	p := heatInstance(sz)
	return map[string]any{"nx": p.nx, "steps_per_solve": p.steps, "alpha": heatAlpha,
		"locales": p.locales, "cores_per_locale": 1, "init": "uniform [0,1) from the seed"}
}

type heatInst struct {
	heatSize
	prob heat.Problem
	sys  *locale.System
	u    []float64
	want []float64 // SolveSerial's field, once computed
}

func setupHeat(o runOpts) (instance, error) {
	p := heatInstance(o.size)
	r := prng.New(derive(o.seed, 5))
	u0 := make([]float64, p.nx)
	for i := range u0 {
		u0[i] = r.Float64()
	}
	prob := heat.Problem{Alpha: heatAlpha, U0: u0, Steps: p.steps}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	return &heatInst{heatSize: p, prob: prob, sys: locale.NewSystem(p.locales, 1)}, nil
}

// solve runs SolveCoforall; the locale substrate has no obs hooks, so a
// traced solve is the same call.
func (h *heatInst) solve(bool) error {
	u, err := heat.SolveCoforall(h.prob, h.sys)
	h.u = u
	return err
}

func (h *heatInst) expected() ([]float64, error) {
	if h.want == nil {
		want, err := heat.SolveSerial(h.prob)
		if err != nil {
			return nil, err
		}
		h.want = want
	}
	return h.want, nil
}

func (h *heatInst) check() error {
	want, err := h.expected()
	if err != nil {
		return err
	}
	if len(h.u) != len(want) {
		return fmt.Errorf("heat-coforall: %d cells, SolveSerial gives %d", len(h.u), len(want))
	}
	if d := heat.MaxAbsDiff(h.u, want); d != 0 {
		return fmt.Errorf("heat-coforall: differs from SolveSerial by up to %g", d)
	}
	return nil
}

func (h *heatInst) plant() {
	if want, err := h.expected(); err == nil {
		want[len(want)/2] += 1
	}
}

func (h *heatInst) attach() error { return nil }

func (h *heatInst) collect(s samples) error {
	s.add("locale.barrier_waits", float64(2*h.steps*h.locales))
	return nil
}

// reference times the serial solver on the same problem, the compute
// share of a solve, and the cost of one barrier wait with no work
// between waits.
func (h *heatInst) reference(s samples) error {
	const waits = 100000
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := heat.SolveSerial(h.prob); err != nil {
			return err
		}
		s.add("heat.compute_s", time.Since(start).Seconds())

		b := locale.NewBarrier(h.locales)
		start = time.Now()
		locale.Coforall(h.locales, func(int) {
			for j := 0; j < waits; j++ {
				b.Wait()
			}
		})
		s.add("locale.barrier_ns", float64(time.Since(start).Nanoseconds())/waits)
	}
	return nil
}

func (h *heatInst) close() error { return nil }
