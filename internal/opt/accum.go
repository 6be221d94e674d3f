package opt

import (
	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// SparseAccum is a reusable sparse gradient accumulator: a dense value array
// paired with per-coordinate epoch stamps, so resetting between batches is
// O(coordinates touched) instead of a dense clear, and no per-batch
// allocation happens at all. It replaces the make([]float64, dim) that a
// naive mini-batch step performs for every batch.
//
// The accumulated values are bit-identical to accumulating into a zeroed
// dense vector in the same order: the first touch of a coordinate stores
// 0 + v (not v — IEEE distinguishes them when v is -0), and later touches
// add in place.
type SparseAccum struct {
	vals    []float64
	stamp   []uint64
	epoch   uint64
	touched []int32
}

// NewSparseAccum returns an accumulator for dim-dimensional gradients.
func NewSparseAccum(dim int) *SparseAccum {
	return &SparseAccum{
		vals:  make([]float64, dim),
		stamp: make([]uint64, dim),
	}
}

// Reset clears the accumulator in O(touched): it bumps the epoch, which
// invalidates every stamped coordinate at once.
func (a *SparseAccum) Reset() {
	a.epoch++
	a.touched = a.touched[:0]
}

// Add accumulates v into coordinate ix.
func (a *SparseAccum) Add(ix int32, v float64) {
	if a.stamp[ix] != a.epoch {
		a.stamp[ix] = a.epoch
		// First touch: start from an explicit zero so v = -0 accumulates to
		// +0 exactly as it would into a cleared dense buffer.
		a.vals[ix] = 0
		a.vals[ix] += v
		a.touched = append(a.touched, ix)
		return
	}
	a.vals[ix] += v
}

// At returns the accumulated value of coordinate ix (zero if untouched this
// epoch).
func (a *SparseAccum) At(ix int32) float64 {
	if a.stamp[ix] != a.epoch {
		return 0
	}
	return a.vals[ix]
}

// Touched returns the coordinates accumulated this epoch, in first-touch
// order. The slice is owned by the accumulator and valid until Reset.
func (a *SparseAccum) Touched() []int32 { return a.touched }

// addGradient accumulates the batch loss gradient Σ l'(<w,x>, y)·x into a,
// mirroring glm.Objective.AddGradient on a dense buffer: per example, per
// nonzero, in the same order. Returns nonzeros touched (the structural work
// measure — independent of the values, like AddGradient's).
func addGradient(obj glm.Objective, w []float64, batch []glm.Example, a *SparseAccum) (nnz int) {
	n := int32(len(w))
	for _, e := range batch {
		d := obj.Loss.Deriv(vec.Dot(w, e.X), e.Label)
		if d != 0 {
			for i, ix := range e.X.Ind {
				if ix >= n {
					break
				}
				a.Add(ix, d*e.X.Val[i])
			}
		}
		nnz += e.X.NNZ()
	}
	return nnz
}

// MGDStepAccum is MGDStep with the per-batch dense gradient buffer replaced
// by a reusable SparseAccum: zero allocations per batch and, for
// unregularized objectives, an update sweep that touches only the batch's
// support instead of every model coordinate.
//
// The resulting model is bit-identical to MGDStep's. For untouched
// coordinates the dense step computes w[j] -= inv*0, which is exact for
// every finite (and infinite) w[j], so skipping them changes nothing; for
// touched coordinates the accumulated gradient matches the dense buffer bit
// for bit (see SparseAccum); the regularized path keeps the dense sweep the
// dense step also performs.
func MGDStepAccum(obj glm.Objective, w []float64, batch []glm.Example, eta float64, accum *SparseAccum) (work int) {
	if len(batch) == 0 {
		return 0
	}
	accum.Reset()
	work = addGradient(obj, w, batch, accum)
	inv := eta / float64(len(batch))
	if _, isNone := obj.Reg.(glm.None); isNone {
		for _, ix := range accum.Touched() {
			w[ix] -= inv * accum.vals[ix]
		}
	} else {
		for j := range w {
			w[j] -= inv*accum.At(int32(j)) + eta*obj.Reg.DerivAt(w[j])
		}
		work += len(w) // dense regularization sweep
	}
	return work
}
