// Command crestbench is CREST's end-to-end benchmark. It builds a model,
// serves it the way each workload's caller would reach it (in-process
// batch engine or HTTP chunked f32 stream), drives it closed loop for a
// fixed number of ops sized by --seconds, checks every answer against an
// in-process reference, and prints one JSON result line.
//
//	crestbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run. See
// NOTES.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// heldOutSeed is a seed no benchmark tuning has used; re-check claimed
// gains on it as well as on the seeds they were developed with.
const heldOutSeed = 9001

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crestbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "timed seconds per run")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory for the run's model snapshot")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "crestbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "crestbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	rep, err := runBench(options{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir, log: stderr})
	if err != nil {
		fmt.Fprintln(stderr, "crestbench:", err)
		return 1
	}
	if err := writeReport(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "crestbench:", err)
		return 1
	}
	return 0
}

// writeReport prints the operating point, one line per metric, and the
// result object as the last line.
func writeReport(w io.Writer, rep *report) error {
	for name, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	pt, err := json.Marshal(rep.point)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "operating_point %s\n", pt)
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	out, err := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
