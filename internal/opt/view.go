package opt

// View-based variants of the sequential kernels: same algorithms, same
// floating-point operation order, same work accounting as their
// []glm.Example counterparts — but consuming data.View so the hot loops run
// on the slab kernels (internal/data) when a loss-specialized body exists,
// falling back to the interface path otherwise. Trainers that moved onto
// views call these; the originals remain for example-slice consumers and as
// the reference implementations the parity tests compare against.

import (
	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// LocalPassView is LocalPassWith over a view. The model it produces is
// bit-identical to LocalPassWith(obj, w, v.Examples(), ...): the plain and
// lazy-L2 slab passes replicate the per-example update sequence exactly, and
// losses without a slab body (or kernels off) run the original loop.
func LocalPassView(obj glm.Objective, w []float64, v data.View, sched Schedule, stepBase int, sc *PassScratch) (work int) {
	switch reg := obj.Reg.(type) {
	case glm.None:
		if n, ok := data.SGDPassPlain(obj.Loss, w, v, sched, stepBase); ok {
			return n
		}
		return LocalPassWith(obj, w, v.Examples(), sched, stepBase, sc)
	case glm.L2:
		var lazy *LazyL2SGD
		if sc != nil && sc.lazy != nil && len(sc.lazy.v) == len(w) {
			lazy = sc.lazy
			lazy.ResetWith(w, reg.Strength)
		} else {
			lazy = NewLazyL2SGD(w, reg.Strength)
			if sc != nil {
				sc.lazy = lazy
			}
		}
		if s, n, ok := data.SGDPassLazyL2(obj.Loss, lazy.v, lazy.s, lazy.Lambda, v, sched, stepBase); ok {
			lazy.s = s
			work = n
		} else {
			for i, e := range v.Examples() {
				work += lazy.Step(obj.Loss, e, sched(stepBase+i))
			}
		}
		lazy.WeightsInto(w)
		work += len(w) // final materialization
		return work
	default:
		return LocalPassWith(obj, w, v.Examples(), sched, stepBase, sc)
	}
}

// MGDStepView is MGDStep over a view: the batch gradient comes from the
// fused slab pass (data.AddGradient), the update sweeps are unchanged.
func MGDStepView(obj glm.Objective, w []float64, batch data.View, eta float64, scratch []float64) (work int) {
	if batch.NumRows() == 0 {
		return 0
	}
	g := scratch
	if len(g) != len(w) {
		g = make([]float64, len(w)) // fresh buffer: already zero
	} else {
		vec.Zero(g) // recycled scratch: clear only in this case
	}
	work = data.AddGradient(obj, w, batch, g)
	inv := eta / float64(batch.NumRows())
	if _, isNone := obj.Reg.(glm.None); isNone {
		for j := range w {
			w[j] -= inv * g[j]
		}
	} else {
		for j := range w {
			w[j] -= inv*g[j] + eta*obj.Reg.DerivAt(w[j])
		}
		work += len(w) // dense regularization sweep
	}
	return work
}

// LocalMGDEpochView is LocalMGDEpoch over a view: consecutive batches are
// rowPtr sub-views of the partition's arena, never slice copies.
func LocalMGDEpochView(obj glm.Objective, w []float64, v data.View, batchSize int, sched Schedule, stepBase int, scratch []float64) (work, steps int) {
	n := v.NumRows()
	if batchSize <= 0 {
		batchSize = n
	}
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		work += MGDStepView(obj, w, v.Sub(lo, hi), sched(stepBase+steps), scratch)
		steps++
	}
	return work, steps
}

// MGDStepAccumView is MGDStepAccum over a view. The slab path splits the
// accumulation in two phases — all per-row derivatives first (fused slab
// pass; w does not change during accumulation, so the values are
// bit-identical to interleaved computation), then the sparse adds in the
// same row/nonzero order the interface path uses.
func MGDStepAccumView(obj glm.Objective, w []float64, batch data.View, eta float64, accum *SparseAccum) (work int) {
	rows := batch.NumRows()
	if rows == 0 {
		return 0
	}
	accum.Reset()
	if derivs := accum.derivBuf(rows); data.DerivsInto(obj.Loss, w, batch, derivs) {
		n := int32(len(w))
		for i := 0; i < rows; i++ {
			_, ind, val := batch.Row(i)
			if d := derivs[i]; d != 0 {
				for p, ix := range ind {
					if ix >= n {
						break
					}
					accum.Add(ix, d*val[p])
				}
			}
			work += len(ind)
		}
	} else {
		work = addGradient(obj, w, batch.Examples(), accum)
	}
	inv := eta / float64(rows)
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
