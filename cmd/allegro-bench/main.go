// Command allegro-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	allegro-bench -exp all            # run every experiment
//	allegro-bench -exp table2,fig6    # run a subset
//	allegro-bench -list               # list experiment IDs
//	allegro-bench -exp fig4 -full     # full (slower) scale
//
// Throughput and the per-kernel wall-time breakdown are measured by the
// repository benchmark (bash bench/run.sh; per-kernel rows with --trace 1),
// not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp  = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		full = flag.Bool("full", false, "run at full scale (slower, larger datasets)")
		seed = flag.Uint64("seed", 1, "experiment seed")
		list = flag.Bool("list", false, "list available experiments and exit")
	)
	flag.Parse()
	if *list {
		for _, id := range experiments.All() {
			fmt.Println(id)
		}
		return
	}
	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	ids := experiments.All()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		r, err := experiments.Run(strings.TrimSpace(id), scale, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "allegro-bench:", err)
			os.Exit(1)
		}
		r.Print(os.Stdout)
	}
}
