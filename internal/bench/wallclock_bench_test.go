package bench

// Wall-clock benchmarks for the paper-figure trainer workloads and the
// allocation-optimized kernels: they measure host time and allocations of
// runs whose results the parity suites pin.

import (
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/glm"
	"mllibstar/internal/opt"
)

// benchWorkload returns the shared small avazu workload used by the
// wall-clock benchmarks.
func benchWorkload(b *testing.B) *workload {
	b.Helper()
	w, err := loadWorkload("avazu", RunConfig{Scale: 20000, EvalCap: 200})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkWallClockFig4 times the regularized MLlib-vs-MLlib* workload of
// Figure 4 (both systems, a few communication steps each).
func BenchmarkWallClockFig4(b *testing.B) {
	w := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sys := range []string{sysMLlib, sysMLlibStar} {
			prm := tuned(sys, "avazu", 0.1)
			prm.MaxSteps = 10
			if _, err := runSystem(sys, clusters.Test(4), w, prm, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWallClockFig5 times the unregularized parameter-server comparison
// of Figure 5 (MLlib*, Petuum*, Angel).
func BenchmarkWallClockFig5(b *testing.B) {
	w := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sys := range []string{sysMLlibStar, sysPetuumStar, sysAngel} {
			prm := tuned(sys, "avazu", 0)
			prm.MaxSteps = 10
			if _, err := runSystem(sys, clusters.Test(4), w, prm, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWallClockSuperstep times a single MLlib* communication step — one
// BSP stage of local passes plus AllReduce.
func BenchmarkWallClockSuperstep(b *testing.B) {
	w := benchWorkload(b)
	prm := tuned(sysMLlibStar, "avazu", 0.1)
	prm.MaxSteps = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runSystem(sysMLlibStar, clusters.Test(8), w, prm, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWallClockKernels times one mini-batch gradient step in the dense
// formulation (fresh dim-sized gradient buffer per step) against the
// sparse-accumulator formulation used by the hot path, which touches only
// the batch's nonzero coordinates. The two are bit-identical (see
// internal/opt/accum_test.go); allocs/op is the headline number here.
func BenchmarkWallClockKernels(b *testing.B) {
	w := benchWorkload(b)
	dim := w.ds.Features
	batch := w.ds.Examples
	if len(batch) > 256 {
		batch = batch[:256]
	}
	obj := glm.SVM(0) // None regularization: the sparse-update fast path
	b.Run("MGDStep/dense", func(b *testing.B) {
		model := make([]float64, dim)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt.MGDStep(obj, model, batch, 0.1, nil)
		}
	})
	b.Run("MGDStep/accum", func(b *testing.B) {
		model := make([]float64, dim)
		accum := opt.NewSparseAccum(dim)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt.MGDStepAccum(obj, model, batch, 0.1, accum)
		}
	})
}

// TestKernelAllocReduction pins the acceptance criterion: the accumulator
// step must allocate at least 30% less than the dense step.
func TestKernelAllocReduction(t *testing.T) {
	w, err := loadWorkload("avazu", RunConfig{Scale: 20000, EvalCap: 200})
	if err != nil {
		t.Fatal(err)
	}
	dim := w.ds.Features
	batch := w.ds.Examples
	if len(batch) > 256 {
		batch = batch[:256]
	}
	obj := glm.SVM(0)
	dense := testing.AllocsPerRun(50, func() {
		model := make([]float64, dim)
		opt.MGDStep(obj, model, batch, 0.1, nil)
	})
	accum := opt.NewSparseAccum(dim)
	sparse := testing.AllocsPerRun(50, func() {
		model := make([]float64, dim)
		opt.MGDStepAccum(obj, model, batch, 0.1, accum)
	})
	if sparse > 0.7*dense {
		t.Errorf("accum step allocates %.1f/op vs dense %.1f/op; want >=30%% reduction", sparse, dense)
	}
}
