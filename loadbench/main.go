// Command saccs-load is the repository's end-to-end benchmark. It starts a
// SACCS server child over the paper-scale world (280 entities, ~7 000
// reviews), drives it over loopback HTTP with an open-loop generator, checks
// every answer, and prints one JSON result line:
//
//	bash loadbench/run.sh --workload cold-chat --seed 1 --seconds 14 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics: count deltas scraped from the server's own
// /metrics plus the timings of an in-process traced replay. Workloads and
// their fixed rates live in workloads.json; README.md explains each.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
)

func main() {
	serve := flag.Bool("serve", false, "run as the server child (internal)")
	walDir := flag.String("wal-dir", "", "server child: WAL directory")
	traced := flag.Bool("traced", false, "server child: also build the hand-assembled pipeline for the traced run")
	workload := flag.String("workload", "", "workload name (see workloads.json)")
	seed := flag.Int64("seed", 1, "request generator seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run; 0: end-to-end metrics")
	work := flag.String("work", filepath.Join(".bench_build", "loadbench"), "scratch directory for WAL files and span dumps")
	flag.Parse()

	if *serve {
		if err := serveMain(*walDir, *traced); err != nil {
			fmt.Fprintf(os.Stderr, "saccs-load server: %v\n", err)
			os.Exit(1)
		}
		return
	}
	// Bounds the generator's heap while its collector is off during a pass.
	debug.SetMemoryLimit(512 << 20)
	res, err := drive(options{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		work:     *work,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "saccs-load: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saccs-load: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
