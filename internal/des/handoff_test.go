package des

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestBlockedReasons pins the text of every blocked reason byte-for-byte:
// reasons are kept as plain values while blocked and rendered only here.
func TestBlockedReasons(t *testing.T) {
	s := New()
	mbox := NewQueue[int](s, `mbox"1`)
	timed := NewQueue[int](s, "timed")
	bar := NewBarrier(s, "bsp", 2)
	sig := NewSignal(s, "go")
	s.Spawn("waiter", func(p *Proc) { p.WaitUntil(5) })
	s.Spawn("getter", func(p *Proc) { mbox.Get(p) })
	s.Spawn("until", func(p *Proc) { timed.GetUntil(p, 9.25) })
	s.Spawn("arriver", func(p *Proc) {
		bar.Arrive(p) // generation 0, released by "partner"
		bar.Arrive(p) // generation 1, never completed
	})
	s.Spawn("partner", func(p *Proc) { bar.Arrive(p) })
	s.Spawn("awaiter", func(p *Proc) { sig.Await(p) })
	var report []string
	s.Spawn("watch", func(p *Proc) {
		p.Wait(1)
		report = s.Blocked()
	})
	s.Run()
	want := []string{
		`arriver: barrier "bsp" gen 1 (1/2 arrived)`,
		`awaiter: signal "go"`,
		`getter: recv on queue "mbox\"1"`,
		`until: recv on queue "timed" until t=9.250000`,
		`waiter: wait until t=5.000000`,
	}
	if !reflect.DeepEqual(report, want) {
		t.Errorf("Blocked() =\n%s\nwant\n%s", strings.Join(report, "\n"), strings.Join(want, "\n"))
	}
	if b := s.Blocked(); len(b) != 0 {
		t.Errorf("Blocked() after Run = %q, want empty", b)
	}
}

// runPanic runs s and returns the text of the panic Run raised.
func runPanic(t *testing.T, s *Sim) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run returned without re-raising the process panic")
		}
		msg = fmt.Sprint(r)
	}()
	s.Run()
	return ""
}

// TestFaultWhileAnotherProcessDispatches: the faulting process was woken by
// another process's block, which popped its event; the panic must still
// surface from Run, naming the process that panicked.
func TestFaultWhileAnotherProcessDispatches(t *testing.T) {
	s := New()
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Wait(1)
		}
	})
	s.Spawn("faulty", func(p *Proc) {
		p.Wait(1.5) // woken by ticker's block at t=2
		panic("boom")
	})
	msg := runPanic(t, s)
	if !strings.HasPrefix(msg, `des: process "faulty" panicked: boom`) {
		t.Errorf("panic = %q, want it to name the faulty process", firstLine(msg))
	}
}

// TestKernelInvariantOnProcessGoroutine: a kernel invariant broken inside a
// process (an event scheduled in the past) re-raises from Run with the
// process named.
func TestKernelInvariantOnProcessGoroutine(t *testing.T) {
	s := New()
	s.Spawn("other", func(p *Proc) { p.Wait(10) })
	s.Spawn("backwards", func(p *Proc) {
		p.Wait(2)
		s.schedule(p.Now()-1, p)
	})
	msg := runPanic(t, s)
	if !strings.HasPrefix(msg, `des: process "backwards" panicked: des: scheduling event in the past: 1 < 2`) {
		t.Errorf("panic = %q, want the invariant and the process name", firstLine(msg))
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// spawnBlocked spawns 8 processes blocked on each primitive, none of which
// is ever released.
func spawnBlocked(s *Sim) {
	q := NewQueue[int](s, "never")
	bar := NewBarrier(s, "bsp", 100)
	sig := NewSignal(s, "never")
	for i := 0; i < 8; i++ {
		s.Spawn(fmt.Sprintf("get%d", i), func(p *Proc) { q.Get(p) })
		s.Spawn(fmt.Sprintf("until%d", i), func(p *Proc) {
			q.GetUntil(p, 1)
			q.Get(p)
		})
		s.Spawn(fmt.Sprintf("bar%d", i), func(p *Proc) { bar.Arrive(p) })
		s.Spawn(fmt.Sprintf("sig%d", i), func(p *Proc) { sig.Await(p) })
		s.Spawn(fmt.Sprintf("wait%d", i), func(p *Proc) { p.Wait(float64(i)) })
	}
}

// checkGoroutines fails t if more goroutines are alive than before. A
// goroutine that signalled its end may still be exiting, so it gives the
// count a moment to settle.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	after := runtime.NumGoroutine()
	for i := 0; i < 200 && after > before; i++ {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("%d goroutines before Run, %d after: blocked processes were not unwound", before, after)
	}
}

// TestRunUnwindsEveryBlockedProcess: after Run no coroutine of the
// simulation is left, whatever primitive its process was blocked on.
func TestRunUnwindsEveryBlockedProcess(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	spawnBlocked(s)
	s.Run()
	checkGoroutines(t, before)
}

// TestRunUnwindsAfterProcessPanic: a process panic re-raised from Run still
// unwinds every other blocked process.
func TestRunUnwindsAfterProcessPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	spawnBlocked(s)
	s.Spawn("faulty", func(p *Proc) {
		p.Wait(0.5)
		panic("boom")
	})
	if msg := runPanic(t, s); !strings.HasPrefix(msg, `des: process "faulty" panicked: boom`) {
		t.Errorf("panic = %q, want it to name the faulty process", firstLine(msg))
	}
	checkGoroutines(t, before)
}

// TestRunUnwindsAfterProcessGoexit: a process calling runtime.Goexit (as
// t.FailNow does) ends the goroutine calling Run, and Run still unwinds
// every other blocked process on the way out.
func TestRunUnwindsAfterProcessGoexit(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	spawnBlocked(s)
	var goexitDeferred bool
	s.Spawn("quitter", func(p *Proc) {
		defer func() { goexitDeferred = true }()
		p.Wait(0.5)
		runtime.Goexit()
	})
	returned := false
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		s.Run()
		returned = true
	}()
	<-ended
	if returned {
		t.Error("Run returned normally after a process called runtime.Goexit")
	}
	if !goexitDeferred {
		t.Error("the exiting process's deferred calls did not run")
	}
	checkGoroutines(t, before)
}

// TestDESZeroAllocs: in steady state a Wait, a Queue Put→Get handoff and an
// expiring GetUntil allocate nothing — each involves a switch to a second
// process, so the measurement covers both sides of the handoff.
func TestDESZeroAllocs(t *testing.T) {
	const runs = 100
	measure := func(name string, setup func(s *Sim) func(p *Proc)) {
		s := New()
		op := setup(s)
		var allocs float64
		s.Spawn(name, func(p *Proc) { allocs = testing.AllocsPerRun(runs, func() { op(p) }) })
		s.Run()
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	// A partner that waits in lockstep, half a period out of phase, so
	// every block switches to another process.
	partner := func(s *Sim) {
		s.Spawn("partner", func(p *Proc) {
			p.Wait(0.5)
			for i := 0; i <= 2*runs; i++ {
				p.Wait(1)
			}
		})
	}
	measure("wait", func(s *Sim) func(p *Proc) {
		partner(s)
		return func(p *Proc) { p.Wait(1) }
	})
	measure("handoff", func(s *Sim) func(p *Proc) {
		ping, pong := NewQueue[int](s, "ping"), NewQueue[int](s, "pong")
		s.Spawn("pong", func(p *Proc) {
			for {
				pong.Put(ping.Get(p))
			}
		})
		return func(p *Proc) {
			ping.Put(1)
			pong.Get(p)
		}
	})
	measure("getuntil", func(s *Sim) func(p *Proc) {
		partner(s)
		q := NewQueue[int](s, "until")
		return func(p *Proc) {
			if _, ok := q.GetUntil(p, p.Now()+1); ok {
				t.Error("GetUntil on an empty queue returned a value")
			}
		}
	})
}

// BenchmarkWait measures one timed wait; two processes alternate, so each
// wait switches to the other process.
func BenchmarkWait(b *testing.B) {
	b.ReportAllocs()
	s := New()
	for i := 0; i < 2; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Wait(0.5 * float64(i))
			for n := i; n < b.N; n += 2 {
				p.Wait(1)
			}
		})
	}
	b.ResetTimer()
	s.Run()
}

// BenchmarkQueueHandoff measures one Put→Get round trip between two
// processes: two handoffs, each waking the blocked getter.
func BenchmarkQueueHandoff(b *testing.B) {
	b.ReportAllocs()
	s := New()
	ping, pong := NewQueue[int](s, "ping"), NewQueue[int](s, "pong")
	s.Spawn("ping", func(p *Proc) {
		for n := 0; n < b.N; n++ {
			ping.Put(n)
			pong.Get(p)
		}
	})
	s.Spawn("pong", func(p *Proc) {
		for n := 0; n < b.N; n++ {
			pong.Put(ping.Get(p))
		}
	})
	b.ResetTimer()
	s.Run()
}

// BenchmarkGetUntil measures one timed receive. A producer puts a value
// every third deadline period, so two of three receives expire and leave a
// stale wake-up behind.
func BenchmarkGetUntil(b *testing.B) {
	b.ReportAllocs()
	s := New()
	q := NewQueue[int](s, "until")
	s.Spawn("producer", func(p *Proc) {
		for n := 0; n < b.N/3; n++ {
			p.Wait(3)
			q.Put(n)
		}
	})
	s.Spawn("consumer", func(p *Proc) {
		for n := 0; n < b.N; n++ {
			q.GetUntil(p, p.Now()+1)
		}
	})
	b.ResetTimer()
	s.Run()
}
