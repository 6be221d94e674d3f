package vec

// Pool recycles dense model-sized buffers across training steps, keyed by
// length. Get transfers ownership of a zeroed buffer to the caller; Put
// transfers it back. The ownership rules are enforced by the vecalias
// analyzer's pooled-buffer check: a buffer must not be used after Put, and
// must not be Put twice.
//
// A plain free list (rather than sync.Pool) is deliberate: every Get and Put
// runs on the simulation's single logical thread, so no lock is needed, the
// hot sizes are few (model-dimension vectors), and a bounded free list keeps
// behaviour deterministic enough to reason about. Buffer identity never
// influences numerics — every Get returns all zeros — so the pool is outside
// the bit-identity contract.
type Pool struct {
	free map[int][][]float64
}

// NewPool returns an empty buffer pool.
func NewPool() *Pool {
	return &Pool{free: map[int][][]float64{}}
}

// Get returns a zeroed buffer of length n. Fresh allocations are zero by
// construction; recycled buffers are cleared here — the only point a
// full-model zeroing is actually required.
func (p *Pool) Get(n int) []float64 {
	list := p.free[n]
	if len(list) == 0 {
		return make([]float64, n)
	}
	b := list[len(list)-1]
	p.free[n] = list[:len(list)-1]
	clear(b)
	return b
}

// Put returns a buffer to the pool. The caller must not retain or use b
// afterwards. Putting nil is a no-op, so callers can unconditionally recycle
// optional buffers.
func (p *Pool) Put(b []float64) {
	if b == nil {
		return
	}
	p.free[len(b)] = append(p.free[len(b)], b) //mlstar:nolint vecalias -- Put is the ownership-transfer point: the caller forfeits b
}
