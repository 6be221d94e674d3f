package bench

// Kernels-on vs kernels-off bit-identity: the slab kernels (internal/data)
// must not change a single bit of any result — not the final model, not the
// convergence curve, and, unlike the sparse/pipeline switches, not even the
// virtual clock: a kernel returns exactly the nonzeros-touched work measure
// of the Example-view path it replaces, so simulated time is part of the
// contract (requireSameResult, not requireSameNumerics). The kernels-off leg
// runs the original interface code path, which the pre-kernel golden repro
// CSVs pinned, so these tests transitively pin kernels-on against the
// pre-PR numbers too.

import (
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/lbfgs"
	"mllibstar/internal/train"
)

// runWithKernels runs fn with the slab kernels in the given mode and
// restores the default (on) afterwards.
func runWithKernels(on bool, fn func()) {
	data.ConfigureKernels(on)
	defer data.ConfigureKernels(true)
	fn()
}

func TestCSRKernelBitIdentityTrainers(t *testing.T) {
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
		{sysMLlib, 0}, // BatchFraction < 1: the sampled-rows kernel path
		{sysMAvg, 0.1},
		{sysMLlibStar, 0.1},
		{sysMLlibStar, 0}, // plain-SGD kernel (None regularizer)
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
		runWithKernels(false, func() { off = run() })
		runWithKernels(true, func() { on = run() })
		requireSameResult(t, tc.system, off, on)
	}
}

// TestCSRKernelBitIdentitySquaredLoss covers the third monomorphized loss at
// trainer level: tuned() uses hinge and the SVRG/L-BFGS suites use logistic,
// so squared would otherwise only be exercised by the data-layer unit tests.
func TestCSRKernelBitIdentitySquaredLoss(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, l2 := range []float64{0, 0.1} {
		prm := tuned(sysMLlibStar, "avazu", l2)
		prm.MaxSteps = 8
		prm.Objective.Loss = glm.Squared{}
		run := func() *train.Result {
			res, err := runSystem(sysMLlibStar, clusters.Test(4), w, prm, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		var off, on *train.Result
		runWithKernels(false, func() { off = run() })
		runWithKernels(true, func() { on = run() })
		requireSameResult(t, "MLlib*-squared", off, on)
	}
}

func TestCSRKernelBitIdentityLBFGS(t *testing.T) {
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
		runWithKernels(false, func() { off = run() })
		runWithKernels(true, func() { on = run() })
		name := "LBFGS-tree"
		if allReduce {
			name = "LBFGS-allreduce"
		}
		requireSameResult(t, name, off, on)
	}
}

func TestCSRKernelBitIdentitySVRG(t *testing.T) {
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
	runWithKernels(false, func() { off = run() })
	runWithKernels(true, func() { on = run() })
	requireSameResult(t, "MLlib*-SVRG", off, on)
}

// TestCSRKernelBitIdentityAcrossSparse crosses the kernel switch with the
// sparse exchange: kernels on ≡ off must hold with sparse exchange on and
// off (each comparison keeps the sparse setting fixed on both legs, so
// requireSameResult — clock included — applies throughout).
func TestCSRKernelBitIdentityAcrossSparse(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, system := range []string{sysMLlib, sysMLlibStar} {
		prm := tuned(system, "avazu", 0.1)
		prm.MaxSteps = 8
		run := func() *train.Result {
			res, err := runSystem(system, clusters.Test(4), w, prm, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		for _, sparseOn := range []bool{false, true} {
			var off, on *train.Result
			runWithSparse(sparseOn, func() {
				runWithKernels(false, func() { off = run() })
				runWithKernels(true, func() { on = run() })
			})
			requireSameResult(t, system, off, on)
		}
	}
}

// TestCSRKernelBitIdentityReport checks the end artifact: the full fig4a
// experiment must emit byte-identical CSV files with the kernels on or off.
func TestCSRKernelBitIdentityReport(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	runFig := func() *Report {
		r, err := must(t, "fig4a").Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var off, on *Report
	runWithKernels(false, func() { off = runFig() })
	runWithKernels(true, func() { on = runFig() })
	if off.Files["fig4a_curves.csv"] != on.Files["fig4a_curves.csv"] {
		t.Error("fig4a_curves.csv differs between kernels off and on")
	}
	if len(on.Files["fig4a_curves.csv"]) == 0 {
		t.Error("empty fig4a_curves.csv")
	}
}
