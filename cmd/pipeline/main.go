// Command pipeline runs the data-science pipeline assignment (paper §4):
// it generates (or reuses) the four synthetic NYC datasets and executes the
// crime-analysis workflow — cleaning, spatial join, per-100k aggregation,
// offense mix, monthly trend — writing the Figure 2 heat map:
//
//	pipeline -data ./nyc -events 120000 -parts 8 -heatmap heatmap.ppm
//	pipeline -trips      # the second workflow: trips joined with weather
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/nycgen"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rdd"
	"repro/internal/viz"
)

func main() {
	dataDir := flag.String("data", "", "dataset directory (generated if empty or missing files)")
	events := flag.Int("events", 60000, "total synthetic arrest events")
	seed := flag.Uint64("seed", 42, "city and event seed")
	parts := flag.Int("parts", 8, "dataset partitions")
	corruption := flag.Float64("corruption", 0.03, "fraction of damaged rows")
	heatmap := flag.String("heatmap", "", "write the per-100k heat map to this .ppm file")
	trips := flag.Bool("trips", false, "run the trips/weather pipeline instead")
	obsCLI := obs.BindCLI()
	flag.Parse()

	ctx := rdd.NewContext()
	// The rdd engine is driver-sequential, so the whole pipeline records
	// onto a single-rank trace attached to the context.
	ex, err := cluster.OpenExhibit(obsCLI, 0)
	if err != nil {
		fatal(err)
	}
	defer ex.Close()
	ctx.SetRecorder(ex.Rec)
	if *trips {
		tripData, weather := pipeline.GenerateTrips(*seed, 300)
		fmt.Printf("trips=%d days=%d\n", len(tripData), len(weather))
		for _, s := range pipeline.TripsPipeline(ctx, tripData, weather, *parts) {
			fmt.Println(s)
		}
		if err := obsCLI.Emit(ex.Trace); err != nil {
			fatal(err)
		}
		return
	}

	dir := *dataDir
	if dir == "" {
		dir = "nyc_data"
	}
	if _, err := os.Stat(dir + "/arrests_historic.csv"); err != nil {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		city := nycgen.NewCity(*seed, 10, 6)
		if _, err := city.ExportAll(dir, *seed+1, *events*2/3, *events/3, *corruption); err != nil {
			fatal(err)
		}
		fmt.Printf("generated synthetic datasets in %s\n", dir)
	}

	rep, err := pipeline.CrimePipeline(ctx, dir, *parts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rows: %d total -> %d clean -> %d located (dropped %.1f%%)\n",
		rep.TotalRows, rep.CleanRows, rep.LocatedRows,
		100*float64(rep.TotalRows-rep.CleanRows)/float64(rep.TotalRows))
	fmt.Printf("engine: %d shuffles, %d shuffled records, %d tasks\n",
		ctx.ShuffleCount(), ctx.ShuffledRecords(), ctx.TaskCount())
	if err := obsCLI.Emit(ex.Trace); err != nil {
		fatal(err)
	}

	fmt.Println("\nTop NTAs by arrests per 100k:")
	for _, c := range rep.TopNTAs(8) {
		fmt.Printf("  %-8s %6d\n", c.Key, c.N)
	}
	fmt.Println("\nOffense mix:")
	for _, c := range rep.OffenseCounts {
		fmt.Printf("  %-10s %6d\n", c.Key, c.N)
	}

	if *heatmap != "" {
		img := rep.RenderHeatMap(500, 300)
		if err := viz.SaveRaster(*heatmap, img); err != nil {
			fatal(err)
		}
		fmt.Printf("\nheat map written to %s\n", *heatmap)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipeline:", err)
	os.Exit(1)
}
