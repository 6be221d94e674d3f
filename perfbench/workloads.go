package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"

	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
	"mllibstar/internal/data"
	"mllibstar/internal/engine"
	"mllibstar/internal/glm"
	"mllibstar/internal/lbfgs"
	"mllibstar/internal/mllib"
	"mllibstar/internal/train"
)

// Size picks the workload dimensions: fullSize for the benchmark, tinySize
// for the benchmark's own tests.
type Size int

const (
	fullSize Size = iota
	tinySize
)

// Workload is one set of inputs the benchmark runs. Modes is the single
// place a workload's mode switches are set: they are prof flags (the CLI
// flag surface), applied before set-up and reset to the CLI defaults after
// the workload, so no mode leaks into the next one.
type Workload struct {
	Name      string
	Why       string
	Preset    string
	Scale     float64
	Cluster   string
	Executors int
	Modes     []string
	setup     func(cfg RunConfig) (instance, error)
}

func (w *Workload) record(seed int64) RunRecord {
	return RunRecord{Name: w.Name, Preset: w.Preset, Scale: w.Scale, Cluster: w.Cluster,
		Executors: w.Executors, Modes: append([]string{}, w.Modes...), Seed: seed}
}

// instance is a set-up workload, ready to run its measured work.
type instance interface {
	// repeat runs the workload's fixed work once. The host time of the work
	// is measured by m; set-up of the single-use simulations (cluster or
	// deployment) happens outside it. With traced set, each simulation
	// records a causal event log into the outcome.
	repeat(m *meter, traced bool) *outcome
	// parity runs each mode once more with that mode off, outside the
	// timers, and compares the results with ref, the headline outcome.
	parity(ref *outcome) checks
	// layers replays the workload's calls into each layer and measures them.
	layers(ref *outcome, lm layerMetrics)
	// setupLayers reports the per-layer split of the last set-up.
	setupLayers() (generateS, partitionS float64)
}

// checks counts operations and failures; notes say what failed.
type checks struct {
	attempted, failed int
	notes             []string
}

func (c *checks) op(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.notes) < 20 {
			c.notes = append(c.notes, err.Error())
		}
	}
}

func (c *checks) add(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, n := range o.notes {
		if len(c.notes) < 20 {
			c.notes = append(c.notes, n)
		}
	}
}

// outcome is what one repeat produced.
type outcome struct {
	checks
	simS      float64   // simulated seconds of the fixed work
	simLat    []float64 // simulated latency of each superstep or request, seconds
	objective float64   // headline system's final objective; NaN when none
	msgs      float64   // simulated messages sent
	bytes     float64   // simulated payload bytes
	sysHost   map[string]float64
	logs      []traceLog // traced repeats only: one per simulation
	results   []*train.Result
	serve     *serveRun
}

// fingerprint is what must repeat exactly from one repeat to the next.
func (o *outcome) fingerprint() string {
	return fmt.Sprintf("sim_s=%x objective=%x mean=%x p50=%x p99=%x", math.Float64bits(o.simS),
		math.Float64bits(o.objective), math.Float64bits(mean(o.simLat)),
		math.Float64bits(quantile(o.simLat, 0.5)), math.Float64bits(quantile(o.simLat, 0.99)))
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads(fullSize) {
		out = append(out, w.Name)
	}
	return out
}

func findWorkload(name string, size Size) *Workload {
	for _, w := range workloads(size) {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Rates follow internal/bench's tuned(): MLlib uses a 10% mini batch at
// eta 4 under L2, MLlib* full local passes at eta 0.1 (L2) or 0.3 (none),
// both with the 1/sqrt(t) decay.
func mllibParams(l2 float64, seed int64, steps int) train.Params {
	return train.Params{Objective: glm.SVM(l2), Eta: 4.0, Decay: true, BatchFraction: 0.1,
		MaxSteps: steps, EvalEvery: 1, Seed: seed}
}

func mllibStarParams(l2 float64, seed int64, steps int) train.Params {
	eta := 0.3
	if l2 > 0 {
		eta = 0.1
	}
	return train.Params{Objective: glm.SVM(l2), Eta: eta, Decay: true,
		MaxSteps: steps, EvalEvery: 1, Seed: seed}
}

var lbfgsObjective = glm.LogReg(0.01)

// workloads returns the four benchmark workloads at the given size.
func workloads(size Size) []*Workload {
	tiny := size == tinySize
	pick := func(full, small float64) float64 {
		if tiny {
			return small
		}
		return full
	}
	pickInt := func(full, small int) int { return int(pick(float64(full), float64(small))) }

	fig4 := &trainSpec{
		preset: "kdd12", scale: pick(1000, 100000), cluster: clusters.Cluster1, executors: 8,
		evalCap: pickInt(4000, 200), kernel: kernelSGD, collective: collectiveDelta,
		systems: []trainSystem{
			{key: "mllib", steps: pickInt(40, 3), obj: glm.SVM(0.1), run: func(ctx *engine.Context, in *trainInputs, steps int) (*train.Result, error) {
				return mllib.Train(ctx, in.parts, in.dim, mllibParams(0.1, in.seed, steps), in.eval, in.name)
			}},
			{key: "mllibstar", steps: pickInt(10, 3), obj: glm.SVM(0.1), run: func(ctx *engine.Context, in *trainInputs, steps int) (*train.Result, error) {
				return core.Train(ctx, in.parts, in.dim, mllibStarParams(0.1, in.seed, steps), in.eval, in.name)
			}},
		},
	}
	fig6 := &trainSpec{
		preset: "wx", scale: pick(4000, 200000), cluster: clusters.Cluster2, executors: pickInt(32, 4),
		evalCap: pickInt(4000, 200), kernel: kernelSGD, collective: collectiveDelta,
		systems: []trainSystem{
			{key: "mllibstar", steps: pickInt(6, 3), obj: glm.SVM(0), run: func(ctx *engine.Context, in *trainInputs, steps int) (*train.Result, error) {
				return core.Train(ctx, in.parts, in.dim, mllibStarParams(0, in.seed, steps), in.eval, in.name)
			}},
		},
		parity: []parityCase{
			{mode: "pipeline", flags: []string{"-sparse"}, sameBytes: true},
			{mode: "sparse", flags: []string{"-pipeline", "-chunks=8"}},
		},
	}
	lbfgsW := &trainSpec{
		preset: "kddb", scale: pick(1000, 50000), cluster: clusters.CommBound, executors: pickInt(8, 4),
		evalCap: pickInt(4000, 200), kernel: kernelGradLoss, collective: collectiveProduced,
		systems: []trainSystem{
			{key: "lbfgsstar", steps: pickInt(12, 3), obj: lbfgsObjective, run: func(ctx *engine.Context, in *trainInputs, steps int) (*train.Result, error) {
				return lbfgs.TrainDistributed(ctx, in.parts, in.dim, lbfgs.DistConfig{
					Objective: lbfgsObjective, MaxIters: steps, AllReduce: true, EvalEvery: 1, Seed: in.seed,
				}, in.eval, in.name)
			}},
		},
		parity: []parityCase{
			{mode: "overlap", flags: []string{"-chunks=8"}, sameBytes: true},
		},
	}
	// 400 req/s keeps the two clients below saturation: at saturation every
	// request waits out exactly the batch budget and no seed moves latency.
	srv := &serveSpec{
		shards: 4, clients: 2, perClient: pickInt(10000, 150), qps: 400, nnz: 12, zipfS: 1.2,
		batchMax: 8, budget: 0.002,
		ckptA: filepath.Join("testdata", "serve", "ckpt_a.json"),
		ckptB: filepath.Join("testdata", "serve", "ckpt_b.json"),
	}
	return []*Workload{
		fig4.workload("fig4-kdd12", "the paper's headline pair, MLlib then MLlib*, on Cluster 1; compute-bound, so kernel and evaluation changes show and des or collective changes should not",
			nil),
		fig6.workload("fig6-pipeline", "MLlib* pipelined and sparse on 32 heterogeneous executors: many small messages, so des, allreduce and GC dominate host time",
			[]string{"-pipeline", "-chunks=8", "-sparse"}),
		lbfgsW.workload("lbfgs-overlap", "LBFGS* with -overlap on the comm-bound preset: few large dense payloads, forked senders and feature-major gradient streams",
			[]string{"-overlap", "-chunks=8"}),
		srv.workload("serve-swap", "the serving tier under a closed loop with a mid-traffic hot swap: the only workload with des timed receives and a write beside its reads"),
	}
}

// quantile returns the q-quantile of xs by the nearest-rank rule (the rule
// serve.LatencyQuantile uses); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// derive spreads the workload seed into independent input seeds.
func derive(seed int64, salt int64) int64 { return seed*1_000_003 + salt }

// dataSpec returns the generator spec of a preset at a scale, seeded from
// the workload seed instead of the preset's fixed seed.
func dataSpec(preset string, scale float64, seed int64) (data.Spec, error) {
	spec, err := data.Preset(preset, scale)
	if err != nil {
		return data.Spec{}, err
	}
	spec.Seed = derive(seed, 1)
	return spec, nil
}
