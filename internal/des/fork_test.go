package des

import "testing"

func TestForkRunsChildAtCurrentTimeAndJoins(t *testing.T) {
	s := New()
	var childStart, childEnd, joinAt float64
	s.Spawn("parent", func(p *Proc) {
		p.Wait(1)
		j := Fork(p, "child", func(c *Proc) {
			childStart = c.Now()
			c.Wait(3)
			childEnd = c.Now()
		})
		p.Wait(0.5) // the parent keeps running while the child works
		j.Wait(p)
		joinAt = p.Now()
	})
	s.Run()
	if childStart != 1 {
		t.Errorf("child started at %g, want 1 (fork time)", childStart)
	}
	if childEnd != 4 {
		t.Errorf("child ended at %g, want 4", childEnd)
	}
	if joinAt != 4 {
		t.Errorf("join returned at %g, want 4 (the later of parent and child)", joinAt)
	}
}

func TestForkJoinAfterChildAlreadyDone(t *testing.T) {
	s := New()
	var joinAt float64
	s.Spawn("parent", func(p *Proc) {
		j := Fork(p, "quick", func(c *Proc) { c.Wait(1) })
		p.Wait(10)
		j.Wait(p) // completion token is queued; Wait returns immediately
		joinAt = p.Now()
	})
	s.Run()
	if joinAt != 10 {
		t.Errorf("join returned at %g, want 10", joinAt)
	}
}

// BenchmarkForkJoin measures one Fork of a child that waits once, and the
// join: a Spawn, with its coroutine set-up, plus the handoffs between parent
// and child. Every pipelined collective forks one sender per executor per
// call.
func BenchmarkForkJoin(b *testing.B) {
	b.ReportAllocs()
	s := New()
	s.Spawn("parent", func(p *Proc) {
		for n := 0; n < b.N; n++ {
			Fork(p, "child", func(c *Proc) { c.Wait(1) }).Wait(p)
		}
	})
	b.ResetTimer()
	s.Run()
}
