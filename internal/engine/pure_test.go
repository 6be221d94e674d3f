package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mllibstar/internal/des"
	"mllibstar/internal/trace"
)

// TestPureRunsOnceAcrossSpeculativeCopies pins the Task.Pure memo: in a
// speculatable stage with one straggler, each task's Pure runs exactly once
// even though a speculative copy of the straggler launches, and both of that
// task's attempts charge the memoized work on their own executors.
func TestPureRunsOnceAcrossSpeculativeCopies(t *testing.T) {
	const k, slowIdx = 4, 2
	cfg := Config{TaskBytes: 1, ResultBytes: 1, SpeculationQuantile: 0.75}
	sim, cl, ctx := testCluster(k, cfg)
	pureWork := func(i int) float64 { return 100 * float64(i+1) }
	calls := make([]int, k)
	hosts := make([][]string, k)
	runOnDriver(sim, func(p *des.Proc) {
		tasks := make([]Task, k)
		for i := range tasks {
			i := i
			home := ctx.RoundRobin(i)
			tasks[i] = Task{
				Exec:         home,
				Speculatable: true,
				Pure: func() float64 {
					calls[i]++
					return pureWork(i)
				},
				Run: func(p *des.Proc, ex *Executor) (any, float64) {
					hosts[i] = append(hosts[i], ex.Name())
					if i == slowIdx && ex.Name() == home {
						ex.Charge(p, 100000) // a straggler, but only at home
					}
					return i, 8
				},
			}
		}
		res := ctx.RunStage(p, "memo", tasks)
		for i, r := range res {
			if r.(int) != i {
				t.Errorf("result %d = %v", i, r)
			}
		}
	})

	for i, n := range calls {
		if n != 1 {
			t.Errorf("task %d: Pure ran %d times, want 1", i, n)
		}
	}
	if len(hosts[slowIdx]) != 2 || hosts[slowIdx][0] == hosts[slowIdx][1] {
		t.Fatalf("straggler attempts ran on %v, want an original and a copy on another executor", hosts[slowIdx])
	}

	// Every attempt that started charged its task's Pure work as one Compute
	// span of work/rate seconds on its own executor.
	for i := range calls {
		want := pureWork(i) / 1000 // testCluster computes 1000 work/s
		var on []string
		for _, sp := range cl.Net.Recorder().Spans() {
			if sp.Kind == trace.Compute && math.Abs(sp.End-sp.Start-want) < 1e-9 {
				on = append(on, sp.Node)
			}
		}
		if fmt.Sprint(on) != fmt.Sprint(hosts[i]) {
			t.Errorf("task %d: Pure work charged on %v, want once per attempt on %v", i, on, hosts[i])
		}
	}
}

// TestPurePanicNamesExecutor pins the failure path: a panicking Pure
// re-raises from Sim.Run with the executor process that ran it named.
func TestPurePanicNamesExecutor(t *testing.T) {
	sim, _, ctx := testCluster(2, DefaultConfig())
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, `process "exec:exec1" panicked`) || !strings.Contains(msg, "pure boom") {
			t.Fatalf("recovered %v, want a panic naming exec:exec1 and carrying the Pure's value", r)
		}
	}()
	runOnDriver(sim, func(p *des.Proc) {
		ctx.RunStage(p, "boom", []Task{{
			Exec: ctx.RoundRobin(1),
			Pure: func() float64 { panic("pure boom") },
			Run:  func(p *des.Proc, ex *Executor) (any, float64) { return nil, 0 },
		}})
	})
	t.Fatal("Sim.Run returned despite a panicking Pure")
}
