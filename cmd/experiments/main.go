// Command experiments regenerates every table and figure of the paper's
// evaluation section (Tables 1-3, Figures 13-24) over the 12-application
// workload suite and prints them with the corresponding paper claims, so the
// reproduction can be compared experiment by experiment.
//
// Examples:
//
//	experiments -run all
//	experiments -run fig13,fig17,fig24 -iters 128
//	experiments -run all -markdown > EXPERIMENTS.md
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"dmacp/internal/exp"
	"dmacp/internal/workloads"
)

func main() {
	var (
		runList  = flag.String("run", "all", "comma-separated experiment ids (table1..table3, fig13..fig24, ablations, verifydiff, faultsweep, onlinesweep, fusionsweep) or 'all'")
		iters    = flag.Int("iters", workloads.DefaultScale().Iters, "workload base iterations")
		elems    = flag.Int("elems", workloads.DefaultScale().Elems, "workload array length")
		markdown = flag.Bool("markdown", false, "emit Markdown (for EXPERIMENTS.md)")
		jobs     = flag.Int("j", 0, "parallel workers (<= 0 = one per CPU, 1 = serial; tables are identical at every setting)")
		nofuse   = flag.Bool("nofuse", false, "disable the producer→consumer fusion pre-pass")
	)
	flag.Parse()

	runner := exp.NewRunner(workloads.Scale{Iters: *iters, Elems: *elems})
	runner.Jobs = *jobs
	runner.Opts.Jobs = *jobs
	if *nofuse {
		runner.Opts.Fuse = false
	}

	type entry struct {
		id string
		fn func() (*exp.Experiment, error)
	}
	all := []entry{
		{"table1", runner.Table1},
		{"table2", runner.Table2},
		{"table3", runner.Table3},
		{"fig13", runner.Fig13},
		{"fig14", runner.Fig14},
		{"fig15", runner.Fig15},
		{"fig16", runner.Fig16},
		{"fig17", runner.Fig17},
		{"fig18", runner.Fig18},
		{"fig19", runner.Fig19},
		{"fig20", runner.Fig20},
		{"fig21", runner.Fig21},
		{"fig22", runner.Fig22},
		{"fig23", runner.Fig23},
		{"fig24", runner.Fig24},
		{"ablations", runner.Ablations},
		{"verifydiff", runner.VerifyDiff},
		{"faultsweep", runner.FaultSweep},
		{"onlinesweep", runner.OnlineSweep},
		{"fusionsweep", runner.FusionSweep},
	}

	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.id
	}
	want, err := selectIDs(*runList, ids)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	if *markdown {
		fmt.Printf("# EXPERIMENTS — paper vs. measured\n\n")
		fmt.Printf("Regenerated by `go run ./cmd/experiments -run %s -iters %d -elems %d -markdown`.\n\n",
			*runList, *iters, *elems)
		fmt.Printf("Workload scale: %d base iterations x %d sweeps, %d-element arrays, 6x6 mesh.\n\n",
			*iters, workloads.Sweeps, *elems)
	}

	start := time.Now()
	for _, e := range all {
		if !want[e.id] {
			continue
		}
		t0 := time.Now()
		res, err := e.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		if *markdown {
			fmt.Printf("## %s\n\n", res.Title)
			fmt.Printf("*Paper:* %s\n\n", res.PaperClaim)
			fmt.Printf("```\n%s```\n\n", res.Table.String())
			printHeadlines(res, "**Measured:** ", "\n")
			fmt.Println()
		} else {
			fmt.Printf("=== %s (%.1fs) ===\n", res.Title, time.Since(t0).Seconds())
			fmt.Printf("paper: %s\n\n", res.PaperClaim)
			fmt.Print(res.Table.String())
			printHeadlines(res, "measured: ", "\n")
			fmt.Println()
		}
	}
	if !*markdown {
		fmt.Printf("total: %.1fs\n", time.Since(start).Seconds())
	}
}

// selectIDs resolves the -run list against the known experiment ids: "all"
// selects every id, otherwise each comma-separated entry, trimmed of
// whitespace, must name a known id. An unknown or empty entry is an error.
func selectIDs(list string, known []string) (map[string]bool, error) {
	want := map[string]bool{}
	if strings.TrimSpace(list) == "all" {
		for _, id := range known {
			want[id] = true
		}
		return want, nil
	}
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(known, id) {
			return nil, fmt.Errorf("unknown experiment id %q in -run %q (known: %s, or all)",
				id, list, strings.Join(known, ", "))
		}
		want[id] = true
	}
	return want, nil
}

func printHeadlines(res *exp.Experiment, prefix, suffix string) {
	if len(res.Headline) == 0 {
		return
	}
	keys := make([]string, 0, len(res.Headline))
	for k := range res.Headline {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		v := res.Headline[k]
		if v > -1 && v < 1 && v != 0 {
			parts = append(parts, fmt.Sprintf("%s = %.1f%%", k, v*100))
		} else {
			parts = append(parts, fmt.Sprintf("%s = %.2f", k, v))
		}
	}
	fmt.Print(prefix + strings.Join(parts, ", ") + suffix)
}
