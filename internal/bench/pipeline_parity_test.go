package bench

// Pipeline-vs-sequential bit-identity: the pipelined chunked AllReduce
// (allreduce.Configure) must change nothing but virtual time. Chunking
// inherits each partition's encoding decision and the per-chunk fold keeps
// the canonical decode-then-fold order, so — unlike the sparse switch,
// where only a ≤ bound on bytes is meaningful — the pipelined run must
// match the sequential run on every training numeric AND charge exactly
// the same TotalBytes. Each test runs the same training with pipeline=off
// (byte- and bit-identical to the pre-pipeline engine) and pipeline=on,
// across the same trainer configs as the sparse parity suite, plus
// pipeline×sparse and pipeline×par crossings.

import (
	"math"
	"testing"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
	"mllibstar/internal/glm"
	"mllibstar/internal/lbfgs"
	"mllibstar/internal/train"
)

// runWithPipeline runs fn with the pipelined collectives in the given mode
// (at the default chunk count) and restores the default (off) afterwards.
func runWithPipeline(on bool, fn func()) {
	allreduce.Configure(on, 0)
	defer allreduce.Configure(false, 0)
	fn()
}

// requirePipelineParity is requireSameNumerics hardened to the pipeline
// contract: everything bitwise-equal and TotalBytes exactly equal — the
// chunked schedule slices the same encodings the sequential schedule sends,
// so even the modeled payload bytes cannot legitimately move.
func requirePipelineParity(t *testing.T, system string, off, on *train.Result) {
	t.Helper()
	requireSameNumerics(t, system, off, on)
	if off.TotalBytes != on.TotalBytes {
		t.Errorf("%s: pipelined run charged %g bytes, sequential %g — chunking must be byte-invariant",
			system, on.TotalBytes, off.TotalBytes)
	}
}

func TestPipelineBitIdentityTrainers(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		system string
		l2     float64
	}{
		{sysMLlib, 0.1},
		{sysMLlib, 0},
		{sysMAvg, 0.1},
		{sysMLlibStar, 0.1},
		{sysMLlibStar, 0},
		// The parameter-server systems never call the collectives; their
		// parity must hold trivially — included to pin that the switch does
		// not leak into the PS path.
		{sysPetuumStar, 0.1},
		{sysPetuumStar, 0},
		{sysAngel, 0.1},
	} {
		prm := tuned(tc.system, "avazu", tc.l2)
		prm.MaxSteps = 8
		run := func() *train.Result {
			res, err := runSystem(tc.system, clusters.Test(4), w, prm, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		var off, on *train.Result
		runWithPipeline(false, func() { off = run() })
		runWithPipeline(true, func() { on = run() })
		requirePipelineParity(t, tc.system, off, on)
	}
}

func TestPipelineBitIdentityLBFGS(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, allReduce := range []bool{false, true} {
		run := func() *train.Result {
			_, _, ctx := clusters.Test(4).Build(nil)
			parts := w.ds.Partition(4, 3)
			res, err := lbfgs.TrainDistributed(ctx, parts, w.ds.Features, lbfgs.DistConfig{
				Objective: glm.LogReg(0.01),
				MaxIters:  6,
				AllReduce: allReduce,
			}, w.eval, w.ds.Name)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		var off, on *train.Result
		runWithPipeline(false, func() { off = run() })
		runWithPipeline(true, func() { on = run() })
		name := "LBFGS-tree"
		if allReduce {
			name = "LBFGS-allreduce"
		}
		requirePipelineParity(t, name, off, on)
	}
}

func TestPipelineBitIdentitySVRG(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	prm := train.Params{Objective: glm.LogReg(0.01), Eta: 0.1, MaxSteps: 5, EvalEvery: 1, Seed: 7}
	run := func() *train.Result {
		_, _, ctx := clusters.Test(4).Build(nil)
		parts := w.ds.Partition(4, 3)
		res, err := core.TrainSVRG(ctx, parts, w.ds.Features, prm, w.eval, w.ds.Name)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var off, on *train.Result
	runWithPipeline(false, func() { off = run() })
	runWithPipeline(true, func() { on = run() })
	requirePipelineParity(t, "MLlib*-SVRG", off, on)
}

// TestPipelineSparseCrossing crosses the two wire switches: with sparse
// delta exchange on, pipelining must still be numerically invisible and
// byte-exact (the chunked AllGather defers its sends until the adaptive
// encoding decision sees the same fully folded partition the sequential
// path encodes).
func TestPipelineSparseCrossing(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	prm := tuned(sysMLlibStar, "avazu", 0.1)
	prm.MaxSteps = 8
	run := func() *train.Result {
		res, err := runSystem(sysMLlibStar, clusters.Test(4), w, prm, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var off, on *train.Result
	runWithSparse(true, func() {
		runWithPipeline(false, func() { off = run() })
		runWithPipeline(true, func() { on = run() })
	})
	requirePipelineParity(t, "MLlib* sparse", off, on)
}

// TestPipelineNoSlowdown pins the direction of the time change: on the
// comm-balanced cluster the pipelined schedule must make the high-
// dimensional MLlib* run strictly faster in virtual time, with the ≥1.3×
// target checked where it is recorded (BenchmarkWallClockPipeline →
// BENCH_5.json); here a cheaper smoke threshold keeps the property in the
// race-enabled test tier.
func TestPipelineNoSlowdown(t *testing.T) {
	w := highDimWorkload()
	prm := tuned(sysMLlibStar, "avazu", 0.1)
	prm.MaxSteps = 4
	run := func() *train.Result {
		res, err := runSystem(sysMLlibStar, clusters.CommBound(4), w, prm, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var off, on *train.Result
	runWithPipeline(false, func() { off = run() })
	runWithPipeline(true, func() { on = run() })
	requirePipelineParity(t, "MLlib* highdim", off, on)
	if math.IsNaN(on.SimTime) || on.SimTime >= off.SimTime {
		t.Errorf("pipelined SimTime %g is not below sequential %g", on.SimTime, off.SimTime)
	}
}
