package des

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestWaitAdvancesClock(t *testing.T) {
	s := New()
	var at []float64
	s.Spawn("w", func(p *Proc) {
		p.Wait(1.5)
		at = append(at, p.Now())
		p.Wait(2.5)
		at = append(at, p.Now())
	})
	end := s.Run()
	want := []float64{1.5, 4.0}
	if !reflect.DeepEqual(at, want) {
		t.Errorf("timestamps = %v, want %v", at, want)
	}
	if end != 4.0 {
		t.Errorf("end = %g, want 4.0", end)
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	s := New()
	var order []string
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for step := 0; step < 3; step++ {
				p.Wait(1)
				order = append(order, fmt.Sprintf("p%d@%g", i, p.Now()))
			}
		})
	}
	s.Run()
	// At every tick processes run in spawn order because ties break by
	// schedule sequence.
	want := []string{
		"p0@1", "p1@1", "p2@1",
		"p0@2", "p1@2", "p2@2",
		"p0@3", "p1@3", "p2@3",
	}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestWaitZeroRunsOthersFirst(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	s.Run()
	want := []string{"a1", "b1", "a2"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestNegativeWaitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from negative Wait")
		}
	}()
	s := New()
	s.Spawn("w", func(p *Proc) { p.Wait(-1) })
	s.Run()
}

func TestQueueBlocksUntilPut(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q")
	var got int
	var at float64
	s.Spawn("consumer", func(p *Proc) {
		got = q.Get(p)
		at = p.Now()
	})
	s.Spawn("producer", func(p *Proc) {
		p.Wait(3)
		q.Put(42)
	})
	s.Run()
	if got != 42 || at != 3 {
		t.Errorf("got %d at %g, want 42 at 3", got, at)
	}
}

func TestQueueFIFOAcrossWaiters(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q")
	var got []string
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn(fmt.Sprintf("c%d", i), func(p *Proc) {
			// Stagger arrival so waiter order is c0, c1, c2.
			p.Wait(float64(i))
			v := q.Get(p)
			got = append(got, fmt.Sprintf("c%d<-%d", i, v))
		})
	}
	s.Spawn("producer", func(p *Proc) {
		p.Wait(10)
		q.Put(100)
		q.Put(101)
		q.Put(102)
	})
	s.Run()
	want := []string{"c0<-100", "c1<-101", "c2<-102"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestQueueBufferedGetConsumesNoTime(t *testing.T) {
	s := New()
	q := NewQueue[string](s, "q")
	q.Put("x")
	q.Put("y")
	s.Spawn("c", func(p *Proc) {
		if v := q.Get(p); v != "x" {
			t.Errorf("first Get = %q, want x", v)
		}
		if v := q.Get(p); v != "y" {
			t.Errorf("second Get = %q, want y", v)
		}
		if p.Now() != 0 {
			t.Errorf("buffered Get advanced clock to %g", p.Now())
		}
	})
	s.Run()
}

func TestQueueTryGet(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q")
	if _, ok := q.TryGet(); ok {
		t.Error("TryGet on empty queue reported ok")
	}
	q.Put(7)
	if v, ok := q.TryGet(); !ok || v != 7 {
		t.Errorf("TryGet = %d,%v want 7,true", v, ok)
	}
}

func TestQueueGetN(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q")
	var got []int
	s.Spawn("c", func(p *Proc) { got = q.GetN(p, 3) })
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(1)
			q.Put(i)
		}
	})
	s.Run()
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("got %v", got)
	}
}

func TestResourceSerializesFIFO(t *testing.T) {
	s := New()
	r := NewResource(s, "link")
	type span struct{ start, end float64 }
	var spans []span
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			st, en := r.Acquire(p, 2)
			spans = append(spans, span{st, en})
		})
	}
	s.Run()
	want := []span{{0, 2}, {2, 4}, {4, 6}}
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("spans = %v, want %v", spans, want)
	}
	if r.BusyTime() != 6 {
		t.Errorf("busy = %g, want 6", r.BusyTime())
	}
}

func TestResourceIdleGapNotCounted(t *testing.T) {
	s := New()
	r := NewResource(s, "link")
	s.Spawn("u", func(p *Proc) {
		r.Acquire(p, 1)
		p.Wait(5)
		st, en := r.Acquire(p, 1)
		if st != 6 || en != 7 {
			t.Errorf("second acquire = [%g,%g), want [6,7)", st, en)
		}
	})
	s.Run()
	if r.BusyTime() != 2 {
		t.Errorf("busy = %g, want 2", r.BusyTime())
	}
}

func TestReserveAt(t *testing.T) {
	s := New()
	r := NewResource(s, "nic")
	s.Spawn("u", func(p *Proc) {
		// Two messages arrive at the receiving NIC at t=5 and t=5.5; the
		// second must queue behind the first.
		st1, en1 := r.ReserveAt(5, 2)
		st2, en2 := r.ReserveAt(5.5, 2)
		if st1 != 5 || en1 != 7 {
			t.Errorf("first = [%g,%g)", st1, en1)
		}
		if st2 != 7 || en2 != 9 {
			t.Errorf("second = [%g,%g), want [7,9)", st2, en2)
		}
	})
	s.Run()
}

func TestBarrierReleasesAtSlowest(t *testing.T) {
	s := New()
	b := NewBarrier(s, "bsp", 3)
	releases := map[string]float64{}
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Wait(float64(i + 1)) // w2 is slowest, arrives at t=3
			b.Arrive(p)
			releases[p.Name()] = p.Now()
		})
	}
	s.Run()
	for name, at := range releases {
		if at != 3 {
			t.Errorf("%s released at %g, want 3", name, at)
		}
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	s := New()
	b := NewBarrier(s, "bsp", 2)
	var gens []int
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for step := 0; step < 3; step++ {
				p.Wait(float64(i + 1))
				g := b.Arrive(p)
				if i == 0 {
					gens = append(gens, g)
				}
			}
		})
	}
	s.Run()
	if !reflect.DeepEqual(gens, []int{0, 1, 2}) {
		t.Errorf("generations = %v, want [0 1 2]", gens)
	}
}

func TestSignal(t *testing.T) {
	s := New()
	sig := NewSignal(s, "go")
	var woke []float64
	s.Spawn("waiter", func(p *Proc) {
		sig.Await(p)
		woke = append(woke, p.Now())
		sig.Await(p) // after Fire: returns immediately
		woke = append(woke, p.Now())
	})
	s.Spawn("firer", func(p *Proc) {
		p.Wait(2)
		sig.Fire()
		sig.Fire() // double fire is a no-op
	})
	s.Run()
	if !reflect.DeepEqual(woke, []float64{2, 2}) {
		t.Errorf("woke = %v, want [2 2]", woke)
	}
}

func TestBlockedReportsDeadlockedProcesses(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "never")
	var report []string
	s.Spawn("stuck", func(p *Proc) { q.Get(p) })
	s.Spawn("watch", func(p *Proc) {
		p.Wait(1)
		report = s.Blocked()
	})
	s.Run()
	if len(report) != 1 || report[0] != `stuck: recv on queue "never"` {
		t.Errorf("report = %q", report)
	}
}

func TestRunShutsDownBlockedProcesses(t *testing.T) {
	// A process left blocked on a queue must be unwound by Run so its
	// coroutine exits; reaching the end of Run without hanging is the test.
	s := New()
	q := NewQueue[int](s, "never")
	s.Spawn("stuck", func(p *Proc) { q.Get(p); t.Error("stuck process resumed with a value") })
	s.Run()
}

// TestDeterminism is a property test: a random workload of waits, queue
// operations, and resource acquisitions produces an identical event trace
// when replayed with the same seed.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []string {
		var trace []string
		s := New()
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue[int](s, "q")
		r := NewResource(s, "r")
		nProd := 2 + rng.Intn(3)
		nCons := 1 + rng.Intn(3)
		total := 0
		for i := 0; i < nProd; i++ {
			i := i
			n := 1 + rng.Intn(5)
			total += n
			delays := make([]float64, n)
			for j := range delays {
				delays[j] = rng.Float64() * 3
			}
			s.Spawn(fmt.Sprintf("prod%d", i), func(p *Proc) {
				for j, d := range delays {
					p.Wait(d)
					r.Acquire(p, d/2)
					q.Put(i*100 + j)
					trace = append(trace, fmt.Sprintf("put %d@%.9f", i*100+j, p.Now()))
				}
			})
		}
		per := total / nCons
		rem := total - per*nCons
		for i := 0; i < nCons; i++ {
			n := per
			if i == 0 {
				n += rem
			}
			s.Spawn(fmt.Sprintf("cons%d", i), func(p *Proc) {
				for j := 0; j < n; j++ {
					v := q.Get(p)
					trace = append(trace, fmt.Sprintf("%s got %d@%.9f", p.Name(), v, p.Now()))
				}
			})
		}
		end := s.Run()
		trace = append(trace, fmt.Sprintf("end@%.9f", end))
		return trace
	}
	prop := func(seed int64) bool {
		a, b := run(seed), run(seed)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestResourceOrderInvariant(t *testing.T) {
	// Property: for any sequence of service times requested back-to-back by
	// one process, the resource serves them contiguously and BusyTime equals
	// their sum.
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 50 {
			raw = raw[:50]
		}
		s := New()
		r := NewResource(s, "r")
		sum := 0.0
		ok := true
		s.Spawn("u", func(p *Proc) {
			prevEnd := 0.0
			for _, b := range raw {
				d := float64(b) / 16
				st, en := r.Acquire(p, d)
				if st != prevEnd || en != st+d {
					ok = false
				}
				prevEnd = en
				sum += d
			}
		})
		s.Run()
		const eps = 1e-9
		return ok && r.BusyTime() > sum-eps && r.BusyTime() < sum+eps
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
