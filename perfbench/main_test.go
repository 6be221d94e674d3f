package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/data"
	"mllibstar/internal/sparse"
)

// tinyConfig runs a workload at the test size with the shortest measured
// phase; the repository root is the parent of this directory.
func tinyConfig(traced bool) RunConfig {
	return RunConfig{Seed: 7, Seconds: 0.01, Traced: traced, Root: ".."}
}

// requireDefaultModes fails unless every mode switch is back at its CLI
// default: no mode may leak out of a workload.
func requireDefaultModes(t *testing.T, after string) {
	t.Helper()
	if allreduce.Enabled() || allreduce.OverlapEnabled() || sparse.Enabled() || !data.KernelsEnabled() || currentModes != nil {
		t.Fatalf("after %s: modes leaked (pipeline %v, overlap %v, sparse %v, csrkernels %v, flags %q)", after,
			allreduce.Enabled(), allreduce.OverlapEnabled(), sparse.Enabled(), data.KernelsEnabled(), currentModes)
	}
}

func metricNames(ms []Metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

// TestTinyWorkloadsPass runs every workload at a tiny size, untraced and
// traced, in one process: each passes its checks, reports exactly its
// metric list with finite values, and leaves the modes at their defaults.
func TestTinyWorkloadsPass(t *testing.T) {
	var wantE2E, wantLayer []string
	for _, e := range endToEnd {
		wantE2E = append(wantE2E, e.name)
	}
	for _, l := range perLayer {
		wantLayer = append(wantLayer, l.name)
	}
	for _, traced := range []bool{false, true} {
		for _, w := range workloads(tinySize) {
			res, err := Bench(w, tinyConfig(traced))
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			requireDefaultModes(t, w.Name)
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed: %q", w.Name, traced, res.Failed, res.Attempted, res.Notes)
			}
			want := wantE2E
			if traced {
				want = wantLayer
			}
			if got := metricNames(res.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s (traced %v): metrics %q, want %q", w.Name, traced, got, want)
			}
			for _, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
					t.Errorf("%s: metric %s = %v", w.Name, m.Name, m.Value)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", w.Name, m.Name)
				}
			}
		}
	}
}

// TestCorruptedResultsFail flips one weight bit of a training result and
// drops one served request, and requires the checks to count each.
func TestCorruptedResultsFail(t *testing.T) {
	fig4 := findWorkload("fig4-kdd12", tinySize)
	in, err := fig4.setup(tinyConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	ti := in.(*trainInstance)
	ref := ti.repeat(newMeter(), false)
	if ref.failed != 0 {
		t.Fatalf("clean run failed: %q", ref.notes)
	}
	res := ref.results[len(ref.results)-1]
	sys := ti.spec.systems[len(ti.spec.systems)-1]
	if err := ti.check(sys, res, nil); err != nil {
		t.Fatalf("clean result fails its check: %v", err)
	}
	clean := *res
	res.FinalW = append([]float64(nil), res.FinalW...)
	// Flip the top mantissa bit of the largest weight: a change the
	// objective on the evaluation set must register.
	big := 0
	for j, v := range res.FinalW {
		if math.Abs(v) > math.Abs(res.FinalW[big]) {
			big = j
		}
	}
	res.FinalW[big] = math.Float64frombits(math.Float64bits(res.FinalW[big]) ^ 1<<51)
	var c checks
	c.op(ti.check(sys, res, nil))
	c.op(sameResult(parityCase{mode: "test", sameBytes: true}, res, &clean))
	if c.failed != 2 {
		t.Errorf("flipped weight bit: %d of %d checks failed, want 2", c.failed, c.attempted)
	}

	srv := findWorkload("serve-swap", tinySize)
	sin, err := srv.setup(tinyConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	si := sin.(*serveInstance)
	out := si.repeat(newMeter(), false)
	if out.failed != 0 {
		t.Fatalf("clean load failed: %q", out.notes)
	}
	results := out.serve.results
	if c := si.check(results[1:]); c.failed != 1 || c.attempted != out.attempted {
		t.Errorf("dropped request: %d of %d failed, want 1 of %d", c.failed, c.attempted, out.attempted)
	}
	torn := append(results[:0:0], results...)
	torn[3].Margin = math.Float64frombits(math.Float64bits(torn[3].Margin) ^ 1)
	if c := si.check(torn); c.failed != 1 {
		t.Errorf("corrupted score: %d failed, want 1", c.failed)
	}
}

// TestFingerprintCatchesDrift requires a change in any simulated result to
// count as a failed repeat.
func TestFingerprintCatchesDrift(t *testing.T) {
	ref := &outcome{simS: 1, objective: 0.5, simLat: []float64{0.1, 0.2}}
	same := &outcome{simS: 1, objective: 0.5, simLat: []float64{0.1, 0.2}}
	moved := &outcome{simS: 1, objective: 0.5, simLat: []float64{0.1, math.Nextafter(0.2, 1)}}
	var c checks
	c.deterministic("same", ref, same)
	c.deterministic("moved", ref, moved)
	if c.failed != 1 {
		t.Errorf("%d drift failures, want 1", c.failed)
	}
}

// benchmarkFile is the part of BENCHMARK.json the names are checked against.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatches requires BENCHMARK.json to list exactly the
// workloads and metrics the command prints, with the same units, and the
// printed result line to carry exactly those metrics.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	ws := workloads(fullSize)
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), command %q (%q)", i,
				bf.Workloads[i].Name, bf.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, e := range endToEnd {
		if bf.EndToEnd[i].Name != e.name || bf.EndToEnd[i].Unit != e.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], command %s [%s]", i,
				bf.EndToEnd[i].Name, bf.EndToEnd[i].Unit, e.name, e.unit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(bf.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		if bf.PerLayer[i].Name != l.name || bf.PerLayer[i].Unit != l.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], command %s [%s]", i,
				bf.PerLayer[i].Name, bf.PerLayer[i].Unit, l.name, l.unit)
		}
	}

	// The printed result line carries the reported metrics and nothing else.
	res := &Result{Attempted: 1}
	for _, e := range endToEnd {
		res.Metrics = append(res.Metrics, Metric{e.name, 1, e.unit})
	}
	var out bytes.Buffer
	if err := writeReport(&out, hostRecord("test"), ws[0], tinyConfig(false), res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != 1 || len(line.Metrics) != len(endToEnd) {
		t.Fatalf("result line %+v", line)
	}
	for _, e := range bf.EndToEnd {
		if m, ok := line.Metrics[e.Name]; !ok || m.Unit != e.Unit {
			t.Errorf("result line lacks %s [%s]", e.Name, e.Unit)
		}
	}
}

// TestProfileShares profiles the des replays and requires the parser to
// charge most samples to des.
func TestProfileShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	desReplays(layerMetrics{})
	desReplays(layerMetrics{})
	pprof.StopCPUProfile()
	shares, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if shares["des"] <= 0 || shares["data"] != 0 {
		t.Errorf("des replay profile shares %v: want des > 0 and no data", shares)
	}
}
