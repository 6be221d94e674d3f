//go:build go1.23

// Package des implements a deterministic discrete-event simulation kernel.
//
// A Sim owns a virtual clock and a set of processes. Each process is a
// runtime coroutine (iter.Pull), so exactly one process, or Run itself,
// executes at any moment, and no switch between them goes through the Go
// scheduler. A process runs until it blocks on a simulation primitive (Wait,
// Queue.Get, Resource.Acquire, ...). The blocking process pops the earliest
// live wake-up from the event heap and advances the clock. If that wake-up
// is its own, it simply returns, with no switch at all. Otherwise it yields
// to Run, the only code that ever resumes a process, which resumes the woken
// one. Run also re-raises a process's panic, and on every exit (the heap
// drained, a re-raised panic, a process calling runtime.Goexit) it unwinds
// the processes still blocked.
//
// Events at equal times fire in the order they were scheduled, so a
// simulation is fully deterministic: the same program and seeds produce the
// same event trace, clock values, and results.
//
// The kernel is the substrate for the simulated cluster (package simnet),
// the Spark-like execution engine (package engine), and the parameter-server
// runtime (package ps).
package des

import (
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"sort"
)

// killed is the sentinel panic value used to unwind a process when the
// simulation is shut down while the process is still blocked.
type killedPanic struct{}

// Sim is a discrete-event simulation instance. It is not safe for concurrent
// use; all interaction must happen from the goroutine that calls Run (before
// Run, to spawn the initial processes) or from within process functions.
type Sim struct {
	now     float64
	events  []event // binary min-heap ordered by (at, seq)
	seq     uint64
	handoff *Proc // process a blocking process woke, for Run to resume next
	procs   []*Proc
	nextID  int
	closed  bool
	fault   *procPanic // panic captured from a process, re-raised by Run
}

// procPanic records a panic that escaped a process function.
type procPanic struct {
	proc  string
	value any
	stack []byte
}

// New returns an empty simulation with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// event is a scheduled wake-up for a process. wake pins the process's
// wake generation at scheduling time: a blocked process may have several
// wake-ups scheduled (a queue item and a GetUntil deadline racing each
// other), only the first of which may resume it — the kernel bumps the
// generation on every delivery, turning the losers into stale events that
// the dispatcher discards.
type event struct {
	at   float64
	seq  uint64
	proc *Proc
	wake uint64
}

// before is the heap order: time, then scheduling sequence.
func (e *event) before(o *event) bool {
	//mlstar:nolint floateq -- exact compare intentional: equal timestamps fall through to the seq tie-break
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (s *Sim) schedule(at float64, p *Proc) {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling event in the past: %g < %g", at, s.now))
	}
	s.seq++
	h := append(s.events, event{at: at, seq: s.seq, proc: p, wake: p.wake})
	// Sift the new event up.
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	s.events = h
}

// popEvent removes and returns the earliest event. The heap must be
// non-empty.
func (s *Sim) popEvent() event {
	h := s.events
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	// Sift the moved event down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].before(&h[l]) {
			m = r
		}
		if !h[m].before(&h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.events = h
	return top
}

// next pops events until one is live, advances the clock to it and marks its
// process resumed. It returns nil when the heap is empty. It runs in Run or
// in a process that is blocking.
func (s *Sim) next() *Proc {
	for len(s.events) > 0 {
		ev := s.popEvent()
		p := ev.proc
		if p.done || ev.wake != p.wake {
			// Finished process, or a wake-up that lost its race (the
			// process was already resumed by a newer event and has moved
			// on — e.g. a GetUntil deadline overtaken by a queue item).
			continue
		}
		if ev.at < s.now {
			panic("des: clock moved backwards")
		}
		s.now = ev.at
		p.wake++
		p.blocked.kind = notBlocked
		return p
	}
	return nil
}

// Proc is a simulation process. A Proc handle is passed to the process
// function and is required by every blocking primitive, which keeps the
// "who is blocking" bookkeeping explicit and cheap.
type Proc struct {
	sim     *Sim
	name    string
	id      int
	next    func() (struct{}, bool) // resumes the coroutine; called only by Run
	stop    func()                  // makes the pending yield return false
	yield   func(struct{}) bool     // the park point: false = killed
	done    bool
	blocked blockReason // the primitive the process is blocked on
	wake    uint64      // wake generation: bumped on every delivered resume
}

// blockKind names the primitive a process is blocked on.
type blockKind uint8

const (
	notBlocked blockKind = iota
	blockWait
	blockQueue
	blockQueueUntil
	blockBarrier
	blockSignal
)

// blockReason is what a process is blocked on, kept as plain values so
// blocking formats nothing; Sim.Blocked renders it on demand.
type blockReason struct {
	kind         blockKind
	name         string  // queue, barrier or signal name
	at           float64 // wait target or receive deadline
	gen, arrived int     // barrier generation and arrivals so far
	n            int     // barrier participants
}

func (r *blockReason) String() string {
	switch r.kind {
	case blockWait:
		return fmt.Sprintf("wait until t=%.6f", r.at)
	case blockQueue:
		return fmt.Sprintf("recv on queue %q", r.name)
	case blockQueueUntil:
		return fmt.Sprintf("recv on queue %q until t=%.6f", r.name, r.at)
	case blockBarrier:
		return fmt.Sprintf("barrier %q gen %d (%d/%d arrived)", r.name, r.gen, r.arrived, r.n)
	case blockSignal:
		return fmt.Sprintf("signal %q", r.name)
	}
	return ""
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// ID returns the process's spawn id, unique within its Sim and assigned in
// spawn order. Names alone need not be unique (per-collective sender forks
// reuse theirs), so "name#id" is the canonical process identity of the
// causal trace.
func (p *Proc) ID() int { return p.id }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.sim.now }

// Spawn creates a process that starts at the current virtual time. The
// process function runs inside the simulation; it must block only through
// simulation primitives, never through real channels or time.Sleep.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	if s.closed {
		panic("des: Spawn on a closed simulation")
	}
	p := &Proc{sim: s, name: name, id: s.nextID}
	s.nextID++
	s.procs = append(s.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.done = true
			if r := recover(); r != nil {
				if _, ok := r.(killedPanic); !ok {
					// Real bug in a process function, or a kernel
					// invariant broken while this process ran: capture it
					// so Run can re-raise it.
					s.fault = &procPanic{proc: p.name, value: r, stack: debug.Stack()}
				}
			}
		}()
		fn(p)
	})
	s.schedule(s.now, p)
	return p
}

// block parks p, whose wake-up is already scheduled or registered with a
// primitive, and dispatches the next event in its place: it returns at once
// when the woken process is p itself, and otherwise yields to Run, which
// resumes the woken process, or finishes when nothing is left to dispatch.
// why is kept for deadlock reports.
func (p *Proc) block(why blockReason) {
	p.blocked = why
	s := p.sim
	q := s.next()
	if q == p {
		return
	}
	s.handoff = q
	if !p.yield(struct{}{}) {
		panic(killedPanic{})
	}
}

// Run executes the simulation until no scheduled events remain and returns
// the final virtual time. A panic that escaped a process function is
// re-raised here, wrapped with the process name and stack; a process calling
// runtime.Goexit ends the goroutine calling Run. On every exit Run shuts down
// the processes still blocked (e.g. servers waiting on request queues).
func (s *Sim) Run() float64 {
	if s.closed {
		panic("des: Run on a closed simulation")
	}
	defer s.shutdown()
	for p := s.next(); p != nil; {
		p.next()
		if f := s.fault; f != nil {
			s.fault = nil
			panic(fmt.Sprintf("des: process %q panicked: %v\n%s", f.proc, f.value, f.stack))
		}
		// The process yielded with the next process it woke, or with nil
		// because the heap drained, or it returned.
		if p, s.handoff = s.handoff, nil; p == nil {
			p = s.next()
		}
	}
	return s.now
}

// Blocked reports the processes that are blocked right now, with the
// primitive each is blocked on. After Run it is empty; it is mainly useful
// from within a watchdog process when debugging a distributed deadlock.
func (s *Sim) Blocked() []string {
	var out []string
	for _, p := range s.procs {
		if !p.done && p.blocked.kind != notBlocked {
			out = append(out, p.name+": "+p.blocked.String())
		}
	}
	sort.Strings(out)
	return out
}

// shutdown unwinds every process still blocked so their coroutines exit.
func (s *Sim) shutdown() {
	if s.closed {
		return
	}
	s.closed = true
	for _, p := range s.procs {
		if !p.done {
			p.stop()
		}
	}
}

// Wait blocks the process for d seconds of virtual time. Negative or NaN
// durations panic: they always indicate a cost-model bug.
func (p *Proc) Wait(d float64) {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("des: Wait(%g) from %s", d, p.name))
	}
	p.WaitUntil(p.sim.now + d)
}

// WaitUntil blocks the process until virtual time t. If t is in the past the
// process continues immediately (no time passes, but other processes
// scheduled earlier still run first at the current instant).
func (p *Proc) WaitUntil(t float64) {
	if t < p.sim.now {
		t = p.sim.now
	}
	p.sim.schedule(t, p)
	p.block(blockReason{kind: blockWait, at: t})
}

// Yield lets every other process scheduled at the current instant run before
// this one continues. Equivalent to Wait(0).
func (p *Proc) Yield() { p.Wait(0) }
