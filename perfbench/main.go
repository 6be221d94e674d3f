// Command perfbench is the repository's benchmark. It runs one workload of
// the simulator from outside — through the public cluster presets, dataset
// generator, trainer and serving entry points — checks every result, and
// prints the workload's metrics by name with their units. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of untraced runs;
// with -trace 1 they are the per-layer metrics of a separate traced run
// (causal event recording, layer replays and a CPU profile). See README.md
// for the workloads, the metrics and the layer table.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig4-kdd12 --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the arguments, benchmarks the named workload(s) and writes the
// report to stdout. It returns the process exit code: 0 when a result was
// printed (correct or not), 2 on bad arguments or a failed set-up.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in host seconds")
	traced := fs.Int("trace", 0, "0 prints the end-to-end metrics of untraced runs; 1 prints the per-layer metrics of the traced run")
	root := fs.String("root", ".", "repository root; the serving workload reads testdata/serve from it")
	commit := fs.String("commit", "unknown", "commit of the code under test, for the run record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace %d: want 0 or 1\n", *traced)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds %g must be positive\n", *seconds)
		return 2
	}
	var chosen []*Workload
	if *name == "all" {
		chosen = workloads(fullSize)
	} else if w := findWorkload(*name, fullSize); w != nil {
		chosen = []*Workload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	// Never schedule more threads than the machine has CPUs.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	cfg := RunConfig{Seed: *seed, Seconds: *seconds, Traced: *traced == 1, Root: *root}
	host := hostRecord(*commit)
	for _, w := range chosen {
		res, err := Bench(w, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
			return 2
		}
		if err := writeReport(stdout, host, w, cfg, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	return 0
}

// resultLine is the machine-readable result: the last line of the output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeReport prints the run record, one line per metric (the reported ones
// and the informational ones), the failure notes, and the JSON result line.
func writeReport(w io.Writer, host Host, wl *Workload, cfg RunConfig, res *Result) error {
	rec, err := json.Marshal(struct {
		Host     Host      `json:"host"`
		Workload RunRecord `json:"workload"`
		Repeats  int       `json:"repeats"`
		Traced   bool      `json:"traced"`
	}{host, wl.record(cfg.Seed), res.Repeats, cfg.Traced})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# perfbench %s\n", wl.Name)
	fmt.Fprintf(w, "record %s\n", rec)
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "metric %-34s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range res.Info {
		fmt.Fprintf(w, "info   %-34s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "FAIL   %s\n", n)
	}
	line := resultLine{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range res.Metrics {
		line.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
