// Command mlstar-benchjson converts `go test -bench` output (read from
// stdin) into a machine-readable JSON artifact. Every `<value> <unit>` pair
// on a benchmark line is captured — the standard ns/op, B/op, allocs/op
// plus any custom b.ReportMetric units (commbytes/op, simsec/op, ...).
//
// Derived tables are emitted from paired sub-runs:
//
//   - comm_reduction_sparse: commbytes/op(sparse=off) / commbytes/op(sparse=on)
//     for benchmarks with exchange-mode sub-runs; >1 means the sparse
//     model-delta encoding shrank the simulated traffic. The companion
//     sim_speedup_sparse is the same ratio for simsec/op — the virtual-time
//     win the byte accounting buys.
//   - obs_overhead: ns/op(obs=on) / ns/op(obs=off) for benchmarks with
//     telemetry sub-runs — the wall-clock price of recording the structured
//     event log (results are bit-identical either way). The companion
//     obs_events_per_op is the obs=on sub-run's obsevents/op metric.
//   - trace_overhead: ns/op(causal=on) / ns/op(causal=off) for benchmarks
//     with causal-tracing sub-runs — the wall-clock price of enriching the
//     event log with happens-before fields and extracting the critical path
//     (results are bit-identical either way).
//   - sim_speedup_pipeline: simsec/op(pipeline=off) / simsec/op(pipeline=on)
//     for benchmarks with superstep-schedule sub-runs; >1 means chunked
//     compute/communication overlap shortened the simulated clock (bytes
//     and numerics are identical by construction).
//   - sim_speedup_overlap: simsec/op(overlap=off) / simsec/op(overlap=on)
//     for benchmarks with gradient-schedule sub-runs — the end-to-end
//     virtual-time win of producing gradient blocks feature-major inside
//     the pipelined collective over the non-pipelined compute-then-
//     communicate baseline (bytes and numerics identical by construction;
//     floor ≥ 2.2 guarded by TestPipelineOverlapSpeedupTarget).
//   - allocs_per_batch_csr: the layout=csr sub-run's allocs/op — allocations
//     per cache-blocked mini-batch pass over the CSR arena, guarded at 0.
//   - lint_cache_speedup: ns/op(cache=cold) / ns/op(cache=warm) for the
//     BenchmarkLintSuite lines `mlstar-lint -bench` emits — how much the
//     content-hash result cache shortens the lint gate (make lint-bench).
//   - kernel_speedup_csr: ns/op(impl=view) / ns/op(impl=slab) for benchmarks
//     with kernel-implementation sub-runs — how much faster the monomorphized
//     slab kernels run the fused gradient+loss superstep than the Example-view
//     interface path (results are bit-identical by the kernel contract).
//
// Usage:
//
//	go test -bench 'BenchmarkWallClock' -benchmem ./internal/bench | mlstar-benchjson -out BENCH_9.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// benchResult is one parsed benchmark line.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds any further unit -> value pairs reported via
	// b.ReportMetric, e.g. "commbytes/op" or "simsec/op".
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// artifact is the emitted JSON document.
type artifact struct {
	Benchmarks []benchResult `json:"benchmarks"`
	// CommReductionSparse maps a benchmark's base name to
	// commbytes/op(sparse=off) / commbytes/op(sparse=on) — the simulated
	// communication-byte reduction from the sparse model-delta exchange.
	CommReductionSparse map[string]float64 `json:"comm_reduction_sparse,omitempty"`
	// SimSpeedupSparse is the matching simsec/op ratio: how much faster the
	// simulated clock runs once messages are delta-coded.
	SimSpeedupSparse map[string]float64 `json:"sim_speedup_sparse,omitempty"`
	// ObsOverhead maps a benchmark's base name to ns/op(obs=on) /
	// ns/op(obs=off) for benchmarks with telemetry sub-runs: the wall-clock
	// price of recording the structured event log (results are bit-identical
	// either way, so this is pure recording cost). ~1 means free.
	ObsOverhead map[string]float64 `json:"obs_overhead,omitempty"`
	// ObsEventsPerOp maps the same base names to the obsevents/op custom
	// metric of the obs=on sub-run: how many structured events one run of
	// the benchmark workload generates.
	ObsEventsPerOp map[string]float64 `json:"obs_events_per_op,omitempty"`
	// TraceOverhead maps a benchmark's base name to ns/op(causal=on) /
	// ns/op(causal=off) for benchmarks with causal-tracing sub-runs: the
	// wall-clock price of recording the happens-before enrichment and running
	// critical-path extraction on top of plain telemetry. Results are
	// bit-identical either way, so this is pure tracing-and-analysis cost.
	TraceOverhead map[string]float64 `json:"trace_overhead,omitempty"`
	// SimSpeedupPipeline maps a benchmark's base name to
	// simsec/op(pipeline=off) / simsec/op(pipeline=on) — the virtual-time
	// win from overlapping chunk transfer with folding. The matching
	// commbytes/op ratio is exactly 1 by the byte-invariance contract, so
	// only the time ratio is tabulated.
	SimSpeedupPipeline map[string]float64 `json:"sim_speedup_pipeline,omitempty"`
	// SimSpeedupOverlap maps a benchmark's base name to
	// simsec/op(overlap=off) / simsec/op(overlap=on) — the end-to-end
	// virtual-time win of streaming feature-major gradient blocks into the
	// chunked Reduce-Scatter as they are produced, measured against the
	// non-pipelined compute-then-communicate baseline. Bytes and numerics
	// are identical by construction (see overlap_parity_test.go), so only
	// the time ratio is tabulated.
	SimSpeedupOverlap map[string]float64 `json:"sim_speedup_overlap,omitempty"`
	// AllocsPerBatchCSR maps a benchmark's base name to the layout=csr
	// sub-run's allocs/op: heap allocations per full cache-blocked
	// mini-batch pass over the CSR arena. The bench-smoke guard
	// (TestCSRBatchZeroAllocs) holds this at exactly 0.
	AllocsPerBatchCSR map[string]float64 `json:"allocs_per_batch_csr,omitempty"`
	// LintCacheSpeedup maps a benchmark's base name (LintSuite) to
	// ns/op(cache=cold) / ns/op(cache=warm): how much of the lint gate the
	// content-hash result cache skips when nothing changed.
	LintCacheSpeedup map[string]float64 `json:"lint_cache_speedup,omitempty"`
	// KernelSpeedupCSR maps a benchmark's base name to ns/op(impl=view) /
	// ns/op(impl=slab): the wall-clock win of the loss-monomorphized slab
	// kernels over the Example-view interface path on the same superstep.
	// The kernel bit-identity contract guarantees both sub-runs compute the
	// same floats, so this is pure data-path speed.
	KernelSpeedupCSR map[string]float64 `json:"kernel_speedup_csr,omitempty"`
}

// benchPrefix matches the name and iteration count of a result row; the
// remainder of the line is parsed as `<value> <unit>` pairs.
var benchPrefix = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// cpuSuffix strips the trailing -<GOMAXPROCS> go appends to benchmark names.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	out := flag.String("out", "BENCH_9.json", "output JSON path")
	flag.Parse()

	art, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlstar-benchjson:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlstar-benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "mlstar-benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mlstar-benchjson: wrote %s (%d benchmarks)\n", *out, len(art.Benchmarks))
}

func parse(sc *bufio.Scanner) (*artifact, error) {
	art := &artifact{}
	for sc.Scan() {
		m := benchPrefix.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := cpuSuffix.ReplaceAllString(strings.TrimPrefix(m[1], "Benchmark"), "")
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		r := benchResult{Name: name, Iterations: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break // not a metric tail; stop pairing
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
		if r.NsPerOp == 0 && r.Metrics == nil {
			continue // header-ish line that happened to match the prefix
		}
		art.Benchmarks = append(art.Benchmarks, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(art.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	art.CommReductionSparse = ratios(art.Benchmarks, "/sparse=off", "/sparse=on",
		func(r benchResult) float64 { return r.Metrics["commbytes/op"] })
	art.SimSpeedupSparse = ratios(art.Benchmarks, "/sparse=off", "/sparse=on",
		func(r benchResult) float64 { return r.Metrics["simsec/op"] })
	// Overhead is on/off, so the suffix roles are swapped relative to the
	// speedup tables.
	art.ObsOverhead = ratios(art.Benchmarks, "/obs=on", "/obs=off",
		func(r benchResult) float64 { return r.NsPerOp })
	art.TraceOverhead = ratios(art.Benchmarks, "/causal=on", "/causal=off",
		func(r benchResult) float64 { return r.NsPerOp })
	art.SimSpeedupPipeline = ratios(art.Benchmarks, "/pipeline=off", "/pipeline=on",
		func(r benchResult) float64 { return r.Metrics["simsec/op"] })
	art.SimSpeedupOverlap = ratios(art.Benchmarks, "/overlap=off", "/overlap=on",
		func(r benchResult) float64 { return r.Metrics["simsec/op"] })
	art.LintCacheSpeedup = ratios(art.Benchmarks, "/cache=cold", "/cache=warm",
		func(r benchResult) float64 { return r.NsPerOp })
	art.KernelSpeedupCSR = ratios(art.Benchmarks, "/impl=view", "/impl=slab",
		func(r benchResult) float64 { return r.NsPerOp })
	for _, r := range art.Benchmarks {
		base, ok := strings.CutSuffix(r.Name, "/obs=on")
		if !ok || r.Metrics["obsevents/op"] <= 0 {
			continue
		}
		if art.ObsEventsPerOp == nil {
			art.ObsEventsPerOp = map[string]float64{}
		}
		art.ObsEventsPerOp[base] = r.Metrics["obsevents/op"]
	}
	for _, r := range art.Benchmarks {
		base, ok := strings.CutSuffix(r.Name, "/layout=csr")
		if !ok {
			continue
		}
		// Zero is the expected — and guarded — value, so record it even
		// though it is the map type's empty value.
		if art.AllocsPerBatchCSR == nil {
			art.AllocsPerBatchCSR = map[string]float64{}
		}
		art.AllocsPerBatchCSR[base] = r.AllocsPerOp
	}
	return art, nil
}

// ratios pairs sub-runs by base name and returns metric(off run) /
// metric(on run) for every base where both runs reported a positive value.
// A nil map means no such pairs were present.
func ratios(results []benchResult, offSuffix, onSuffix string, metric func(benchResult) float64) map[string]float64 {
	off := map[string]float64{}
	on := map[string]float64{}
	for _, r := range results {
		if base, ok := strings.CutSuffix(r.Name, offSuffix); ok {
			off[base] = metric(r)
		}
		if base, ok := strings.CutSuffix(r.Name, onSuffix); ok {
			on[base] = metric(r)
		}
	}
	var out map[string]float64
	for base, num := range off { //mlstar:nolint determinism -- order-insensitive: filling a map from a map
		if den := on[base]; den > 0 && num > 0 {
			if out == nil {
				out = map[string]float64{}
			}
			out[base] = num / den
		}
	}
	return out
}
