package bench

// BenchmarkWallClockCSRKernels: Example-view interface path vs the slab
// kernels, per monomorphized loss, on the fused gradient+loss superstep —
// the L-BFGS hot path, where the interface code makes two full passes over
// the partition (AddGradient then LossSum) and the slab kernel computes each
// row's margin once for both. mlstar-benchjson pairs the /impl=view and
// /impl=slab sub-runs into the kernel_speedup_csr table of BENCH_7.json.
//
// BenchmarkWallClockCSRKernelEpoch reports the SGD-epoch pass (the
// SendModel-trainer hot loop) for the record under unpaired names: both
// sides of that comparison are bound by the same serial dot-product
// dependency chain (bit identity pins the summation order), so its ratio is
// structurally smaller than the fused pass's and it is not part of the
// headline table.

import (
	"testing"

	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/opt"
	"mllibstar/internal/vec"
)

// kernelBenchObjectives pins one objective per monomorphized loss. L2 on the
// epoch pass selects the lazy-L2 kernel, the regularized trainers' path.
func kernelBenchObjectives() []struct {
	name string
	obj  glm.Objective
} {
	return []struct {
		name string
		obj  glm.Objective
	}{
		{"hinge", glm.SVM(0.1)},
		{"logistic", glm.LogReg(0.1)},
		{"squared", glm.Objective{Loss: glm.Squared{}, Reg: glm.L2{Strength: 0.1}}},
	}
}

func BenchmarkWallClockCSRKernels(b *testing.B) {
	w := benchWorkload(b)
	v := data.ViewOf(w.ds.Examples)
	dim := w.ds.Features
	model := make([]float64, dim)
	for i := range model {
		model[i] = 0.01 * float64(i%7)
	}
	g := make([]float64, dim)
	for _, tc := range kernelBenchObjectives() {
		b.Run("loss="+tc.name+"/impl=view", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vec.Zero(g)
				tc.obj.AddGradient(model, v.Examples(), g)
				_ = tc.obj.LossSum(model, v.Examples())
			}
		})
		b.Run("loss="+tc.name+"/impl=slab", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vec.Zero(g)
				_, _ = data.GradAndLoss(tc.obj, model, v, g)
			}
		})
	}
}

func BenchmarkWallClockCSRKernelEpoch(b *testing.B) {
	w := benchWorkload(b)
	v := data.ViewOf(w.ds.Examples)
	dim := w.ds.Features
	sched := opt.Const(0.05) // the Petuum* schedule: no common sqrt cost
	for _, tc := range kernelBenchObjectives() {
		sc := &opt.PassScratch{}
		model := make([]float64, dim)
		// Warm up the lazy-L2 scratch so the loop body is allocation-free on
		// both sides.
		opt.LocalPassWith(tc.obj, model, v.Examples(), sched, 0, sc)
		b.Run("loss="+tc.name+"/pass=view", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt.LocalPassWith(tc.obj, model, v.Examples(), sched, 0, sc)
			}
		})
		b.Run("loss="+tc.name+"/pass=slab", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt.LocalPassView(tc.obj, model, v, sched, 0, sc)
			}
		})
	}
}

// TestCSRKernelZeroAllocs extends the zero-alloc guard to the slab kernels:
// every kernel entry point, and the opt-layer view passes that wrap them,
// must run allocation-free once their reusable scratch is warm.
func TestCSRKernelZeroAllocs(t *testing.T) {
	w, err := loadWorkload("avazu", RunConfig{Scale: 20000, EvalCap: 200})
	if err != nil {
		t.Fatal(err)
	}
	v := data.ViewOf(w.ds.Examples)
	dim := w.ds.Features
	obj := glm.SVM(0.1)
	model := make([]float64, dim)
	g := make([]float64, dim)
	rows := []int32{1, 5, 9, 40}
	sched := opt.Const(0.05)
	sc := &opt.PassScratch{}
	batch := v.Sub(0, 256)
	// Warm the reusable scratch (lazy-L2 shadow).
	opt.LocalPassView(obj, model, v, sched, 0, sc)
	for name, fn := range map[string]func(){
		"AddGradient":     func() { data.AddGradient(obj, model, v, g) },
		"AddGradientRows": func() { data.AddGradientRows(obj, model, v, rows, g) },
		"GradAndLoss":     func() { data.GradAndLoss(obj, model, v, g) },
		"LossSum":         func() { data.LossSum(obj, model, v) },
		"LocalPassView":   func() { opt.LocalPassView(obj, model, v, sched, 0, sc) },
		"MGDStepView":     func() { opt.MGDStepView(obj, model, batch, 0.05, g) },
	} {
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s: %g allocs/op, want 0", name, allocs)
		}
	}
}
