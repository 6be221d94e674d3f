package opt

import (
	"math"
	"math/rand"
	"testing"

	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// synthBatch builds a random sparse batch over dim features.
func synthBatch(rng *rand.Rand, n, dim int) []glm.Example {
	out := make([]glm.Example, n)
	for i := range out {
		var ind []int32
		var val []float64
		for ix := 0; ix < dim; ix++ {
			if rng.Float64() < 0.25 {
				ind = append(ind, int32(ix))
				val = append(val, rng.NormFloat64())
			}
		}
		label := 1.0
		if rng.Float64() < 0.5 {
			label = -1
		}
		out[i] = glm.Example{X: vec.Sparse{Ind: ind, Val: val}, Label: label}
	}
	return out
}

// TestMGDStepAccumBitIdentical asserts the sparse-accumulator step produces
// exactly the same model bits and work as the dense MGDStep, across losses
// and regularizers, over many random batches reusing one accumulator.
func TestMGDStepAccumBitIdentical(t *testing.T) {
	objectives := []glm.Objective{
		{Loss: glm.Logistic{}, Reg: glm.None{}},
		{Loss: glm.Hinge{}, Reg: glm.None{}},
		{Loss: glm.Squared{}, Reg: glm.None{}},
		{Loss: glm.Logistic{}, Reg: glm.L2{Strength: 0.01}},
		{Loss: glm.Squared{}, Reg: glm.L2{Strength: 0.1}},
	}
	rng := rand.New(rand.NewSource(11))
	for oi, obj := range objectives {
		dim := 30
		wDense := make([]float64, dim)
		wAccum := make([]float64, dim)
		for j := range wDense {
			wDense[j] = rng.NormFloat64()
			wAccum[j] = wDense[j]
		}
		scratch := make([]float64, dim)
		accum := NewSparseAccum(dim)
		for step := 0; step < 50; step++ {
			batch := synthBatch(rng, 1+rng.Intn(8), dim)
			eta := 0.1 / math.Sqrt(1+float64(step))
			workD := MGDStep(obj, wDense, batch, eta, scratch)
			workA := MGDStepAccum(obj, wAccum, batch, eta, accum)
			if workD != workA {
				t.Fatalf("obj %d step %d: work %d != %d", oi, step, workA, workD)
			}
			for j := range wDense {
				if math.Float64bits(wDense[j]) != math.Float64bits(wAccum[j]) {
					t.Fatalf("obj %d step %d: w[%d] accum %x dense %x",
						oi, step, j, math.Float64bits(wAccum[j]), math.Float64bits(wDense[j]))
				}
			}
		}
	}
}

// TestMGDStepAccumNegZeroGradient pins the -0 edge: an example value of -0
// contributes a gradient of -0, which must accumulate to the same bits the
// dense (zero-initialized) buffer produces.
func TestMGDStepAccumNegZeroGradient(t *testing.T) {
	negZero := math.Copysign(0, -1)
	obj := glm.Objective{Loss: glm.Squared{}, Reg: glm.None{}}
	batch := []glm.Example{{
		X:     vec.Sparse{Ind: []int32{0, 1}, Val: []float64{negZero, 1}},
		Label: 1,
	}}
	dim := 2
	wDense := []float64{negZero, 0.5}
	wAccum := []float64{negZero, 0.5}
	MGDStep(obj, wDense, batch, 0.1, nil)
	MGDStepAccum(obj, wAccum, batch, 0.1, NewSparseAccum(dim))
	for j := range wDense {
		if math.Float64bits(wDense[j]) != math.Float64bits(wAccum[j]) {
			t.Fatalf("w[%d]: accum %x dense %x", j,
				math.Float64bits(wAccum[j]), math.Float64bits(wDense[j]))
		}
	}
}

// TestLocalPassWithScratchBitIdentical asserts the scratch-reusing pass
// matches the allocating one across repeated passes (the scratch carries
// state between calls and must be fully reset).
func TestLocalPassWithScratchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	obj := glm.Objective{Loss: glm.Logistic{}, Reg: glm.L2{Strength: 0.03}}
	dim := 20
	data := synthBatch(rng, 40, dim)
	wPlain := make([]float64, dim)
	wScratch := make([]float64, dim)
	sc := NewPassScratch()
	for pass := 0; pass < 5; pass++ {
		workP := LocalPass(obj, wPlain, data, Const(0.1), 0)
		workS := LocalPassWith(obj, wScratch, data, Const(0.1), 0, sc)
		if workP != workS {
			t.Fatalf("pass %d: work %d != %d", pass, workS, workP)
		}
		for j := range wPlain {
			if math.Float64bits(wPlain[j]) != math.Float64bits(wScratch[j]) {
				t.Fatalf("pass %d: w[%d] differs", pass, j)
			}
		}
	}
}
