package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/nycgen"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rdd"
)

type nycSize struct{ cols, rows, historic, current, parts int }

func nycInstance(sz size) nycSize {
	if sz == smokeSize {
		return nycSize{cols: 10, rows: 6, historic: 20000, current: 10000, parts: 4}
	}
	return nycSize{cols: 10, rows: 6, historic: 200000, current: 100000, parts: 4}
}

// nycCorruption is the share of arrest rows the generator damages.
const nycCorruption = 0.03

func nycParams(sz size) map[string]any {
	p := nycInstance(sz)
	return map[string]any{"nta_cols": p.cols, "nta_rows": p.rows, "historic": p.historic,
		"current": p.current, "corruption": nycCorruption, "partitions": p.parts}
}

type nycInst struct {
	nycSize
	city  *nycgen.City
	dir   string
	ctx   *rdd.Context
	trace *obs.Trace
	rep   *pipeline.CrimeReport
	total int                // rows generated
	truth map[string]float64 // generator's true rate per 100k, once computed
}

func setupNYC(o runOpts) (instance, error) {
	p := nycInstance(o.size)
	dir, err := os.MkdirTemp(o.tmp, "nyc")
	if err != nil {
		return nil, err
	}
	city := nycgen.NewCity(derive(o.seed, 3), p.cols, p.rows)
	if _, err := city.ExportAll(dir, derive(o.seed, 4), p.historic, p.current, nycCorruption); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &nycInst{nycSize: p, city: city, dir: dir, total: p.historic + p.current}, nil
}

func (n *nycInst) solve(traced bool) error {
	n.ctx = rdd.NewContext()
	if traced {
		n.ctx.SetRecorder(n.trace.Rank(0))
	}
	rep, err := pipeline.CrimePipeline(n.ctx, n.dir, n.parts)
	n.rep = rep
	return err
}

// check verifies the cleaning funnel and that the measured rates track
// the generator's ground truth (log-rate correlation, as the pipeline's
// own tests require).
func (n *nycInst) check() error {
	r := n.rep
	if r.TotalRows != n.total {
		return fmt.Errorf("nyc-rdd: %d rows read, %d generated", r.TotalRows, n.total)
	}
	located := 0
	for _, c := range r.ArrestsPerNTA {
		located += c
	}
	if located != r.LocatedRows || r.LocatedRows == 0 || r.LocatedRows > r.CleanRows {
		return fmt.Errorf("nyc-rdd: funnel broken: %d clean, %d located, %d summed over NTAs",
			r.CleanRows, r.LocatedRows, located)
	}
	if n.truth == nil {
		n.truth = n.city.TrueRatePer100k(n.total)
	}
	var xs, ys []float64
	for id, want := range n.truth {
		if got, ok := r.RatePer100k[id]; ok && got > 0 && want > 0 {
			xs, ys = append(xs, math.Log(want)), append(ys, math.Log(got))
		}
	}
	if len(xs) < 20 {
		return fmt.Errorf("nyc-rdd: only %d NTAs have rates", len(xs))
	}
	if c := correlation(xs, ys); !(c >= 0.9) {
		return fmt.Errorf("nyc-rdd: rate correlation with ground truth %.3f < 0.9", c)
	}
	return nil
}

func correlation(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx, sy = sx+xs[i], sy+ys[i]
		sxx, syy, sxy = sxx+xs[i]*xs[i], syy+ys[i]*ys[i], sxy+xs[i]*ys[i]
	}
	cov := sxy/n - sx/n*sy/n
	return cov / math.Sqrt((sxx/n-sx/n*sx/n)*(syy/n-sy/n*sy/n))
}

func (n *nycInst) plant() { n.total++ }

func (n *nycInst) attach() error {
	n.trace = obs.NewTrace(1)
	return nil
}

func (n *nycInst) collect(s samples) error {
	m := n.trace.Metrics()
	s.add("rdd.tasks", float64(n.ctx.TaskCount()))
	s.add("rdd.shuffles", float64(n.ctx.ShuffleCount()))
	s.add("rdd.shuffled_records", float64(n.ctx.ShuffledRecords()))
	s.add("rdd.action_s", opWallS(m, opPrefixed("rdd.")))
	for _, stage := range []string{"ingest", "clean", "dimensions", "rates", "offenses", "monthly"} {
		s.add("pipeline."+stage+"_s", opWallS(m, opNamed("pipeline."+stage)))
	}
	s.add("obs.events", float64(m.Events))
	return nil
}

func (n *nycInst) reference(samples) error { return nil }

func (n *nycInst) close() error { return os.RemoveAll(n.dir) }
