// Command knn runs the k-Nearest-Neighbor assignment (paper §2) on a
// synthetic classification instance or a CSV database, with every variant
// the assignment discusses:
//
//	knn -n 5000 -q 5000 -d 40 -k 15 -variant heap
//	knn -variant mapreduce -ranks 8 -combiner=false
//	knn -db points.csv -variant kdtree
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataio"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/spatial"
)

func main() {
	n := flag.Int("n", 5000, "database size (synthetic mode)")
	q := flag.Int("q", 1000, "query count")
	d := flag.Int("d", 40, "dimensions (synthetic mode)")
	k := flag.Int("k", 15, "neighbours to vote")
	classes := flag.Int("classes", 4, "classes (synthetic mode)")
	seed := flag.Uint64("seed", 1, "dataset seed")
	variant := flag.String("variant", "heap", "sort | heap | parallel | kdtree | mapreduce")
	workers := flag.Int("workers", 0, "parallel workers (0 = all cores)")
	ranks := flag.Int("ranks", 4, "cluster ranks for -variant mapreduce")
	combiner := flag.Bool("combiner", true, "use local reductions in mapreduce")
	dbPath := flag.String("db", "", "CSV database (cols: x1..xd,label); overrides synthetic")
	obsCLI := obs.BindCLI()
	flag.Parse()

	var db *dataio.Dataset
	var queries [][]float64
	var labels []int
	if *dbPath != "" {
		// Parallel byte-range parsing: the assignment's parallel-IO path.
		full, err := dataio.LoadCSVParallel(*dbPath, *workers)
		if err != nil {
			fatal(err)
		}
		nn := full.Len() - *q
		if nn < 1 {
			fatal(fmt.Errorf("database too small for %d queries", *q))
		}
		var rest *dataio.Dataset
		db, rest = full.Split(nn)
		queries, labels = rest.Points, rest.Labels
	} else {
		full := dataio.GaussianMixture(*seed, *n+*q, *d, *classes, 4.0)
		var rest *dataio.Dataset
		db, rest = full.Split(*n)
		queries, labels = rest.Points, rest.Labels
	}

	start := time.Now()
	// mapreduce runs on an in-process world of -ranks goroutines, or —
	// under `peachy launch` — this process's single rank of a
	// multi-process world; the other variants on shared memory.
	worldRanks := 0
	if *variant == "mapreduce" {
		worldRanks = *ranks
	}
	ex, err := cluster.OpenExhibit(obsCLI, worldRanks)
	if err != nil {
		fatal(err)
	}
	defer ex.Close()
	var pred []int
	switch *variant {
	case "sort", "heap", "parallel", "kdtree":
		wall := ex.Rec.Now()
		switch *variant {
		case "sort":
			pred = knn.SequentialSort(db, queries, *k)
		case "heap":
			pred = knn.SequentialHeap(db, queries, *k)
		case "parallel":
			pred = knn.Parallel(db, queries, *k, *workers)
		case "kdtree":
			tree := spatial.NewKDTreeParallel(db.Points, db.Labels, *workers)
			pred = knn.KDTree(tree, queries, *k, *workers)
		}
		ex.Rec.WallSpan("knn."+*variant, wall,
			obs.KV{K: "queries", V: int64(len(queries))}, obs.KV{K: "db", V: int64(db.Len())})
	case "mapreduce":
		world := ex.World
		pred, err = knn.MapReduce(world, db, queries, *k, *combiner)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cluster: %d messages, %d bytes, simulated comm time %.2g s\n",
			world.TotalMessages(), world.TotalBytes(), world.SimTime())
	default:
		fatal(fmt.Errorf("unknown variant %q", *variant))
	}
	elapsed := time.Since(start)
	if err := obsCLI.Emit(ex.Trace); err != nil {
		fatal(err)
	}

	// Predictions are gathered to rank 0, so only the lead process can
	// score them; in a launched world the other ranks stop here.
	if ex.Lead() {
		fmt.Printf("variant=%s n=%d q=%d d=%d k=%d: %.3fs, accuracy %.4f\n",
			*variant, db.Len(), len(queries), db.Dim, *k,
			elapsed.Seconds(), knn.Accuracy(pred, labels))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "knn:", err)
	os.Exit(1)
}
