package des

import "fmt"

// Queue is an unbounded FIFO mailbox for values of type T. Put never blocks;
// Get blocks the calling process until a value is available. When several
// processes are blocked on Get, values are handed out in the order the
// getters arrived (FIFO fairness), which keeps simulations deterministic.
type Queue[T any] struct {
	sim     *Sim
	name    string
	items   fifo[T]
	waiters fifo[*getWaiter[T]]
	free    []*getWaiter[T] // getter records ready for reuse
}

type getWaiter[T any] struct {
	proc  *Proc
	value T
	ready bool
}

// fifo is a slice-backed FIFO that keeps its backing array: pop advances a
// head index, the array rewinds once empty and compacts instead of growing
// when full, so a FIFO that keeps draining stops allocating.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	if len(f.buf) == cap(f.buf) && f.head > 0 {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

// pop removes the oldest element; the FIFO must be non-empty.
func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return v
}

// NewQueue returns an empty mailbox bound to sim. The name appears in
// deadlock reports.
func NewQueue[T any](sim *Sim, name string) *Queue[T] {
	return &Queue[T]{sim: sim, name: name}
}

// Len returns the number of values currently buffered (not counting values
// already assigned to blocked getters).
func (q *Queue[T]) Len() int { return q.items.len() }

// Put appends v to the queue. If a process is blocked on Get, the value is
// assigned to the longest-waiting getter, which is woken at the current
// virtual time. Put may be called from any process or before Run.
func (q *Queue[T]) Put(v T) {
	for q.waiters.len() > 0 {
		w := q.waiters.pop()
		if w.proc.done {
			continue
		}
		w.value = v
		w.ready = true
		q.sim.schedule(q.sim.now, w.proc)
		return
	}
	q.items.push(v)
}

// Get removes and returns the oldest value in the queue, blocking p until
// one is available. Retrieval itself consumes no virtual time.
func (q *Queue[T]) Get(p *Proc) T {
	if v, ok := q.TryGet(); ok {
		return v
	}
	w := q.wait(p)
	p.block(blockReason{kind: blockQueue, name: q.name})
	if !w.ready {
		panic(fmt.Sprintf("des: process %s woken on queue %q without a value", p.name, q.name))
	}
	return q.release(w)
}

// GetUntil is Get with a virtual-time deadline: it removes and returns the
// oldest value if one is buffered or arrives strictly before deadline, and
// otherwise returns the zero value with ok=false once the deadline passes.
// When a Put and the deadline land at the same instant, the deadline wins
// (the kernel fires it first — it was scheduled earlier) and the value stays
// queued for the next getter, so no value is ever lost to a timeout.
//
// It is the primitive under request batching with a latency budget
// (internal/serve): a router drains its mailbox until either the batch
// fills or the budget deadline passes, whichever comes first.
func (q *Queue[T]) GetUntil(p *Proc, deadline float64) (T, bool) {
	var zero T
	if v, ok := q.TryGet(); ok {
		return v, true
	}
	if deadline <= q.sim.now {
		return zero, false
	}
	w := q.wait(p)
	q.sim.schedule(deadline, p)
	p.block(blockReason{kind: blockQueueUntil, name: q.name, at: deadline})
	if w.ready {
		return q.release(w), true
	}
	// Woken by the deadline: withdraw the registration so a later Put does
	// not assign a value to a getter that has given up.
	ws := q.waiters.buf[q.waiters.head:]
	for i, x := range ws {
		if x == w {
			copy(ws[i:], ws[i+1:])
			ws[len(ws)-1] = nil
			q.waiters.buf = q.waiters.buf[:len(q.waiters.buf)-1]
			break
		}
	}
	q.release(w)
	return zero, false
}

// wait registers p as the newest blocked getter, reusing a getter record
// when one is free.
func (q *Queue[T]) wait(p *Proc) *getWaiter[T] {
	var w *getWaiter[T]
	if n := len(q.free); n > 0 {
		w = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		w = new(getWaiter[T])
	}
	w.proc = p
	q.waiters.push(w)
	return w
}

// release recycles a getter record no Put can reach any more and returns
// the value it carried.
func (q *Queue[T]) release(w *getWaiter[T]) T {
	v := w.value
	*w = getWaiter[T]{}
	q.free = append(q.free, w)
	return v
}

// TryGet removes and returns the oldest value without blocking. The second
// result reports whether a value was available.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.pop(), true
}

// GetN blocks until n values have been received and returns them in arrival
// order.
func (q *Queue[T]) GetN(p *Proc, n int) []T {
	out := make([]T, 0, n)
	for len(out) < n {
		out = append(out, q.Get(p))
	}
	return out
}
