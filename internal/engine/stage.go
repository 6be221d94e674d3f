package engine

import (
	"fmt"
	"math/rand"

	"mllibstar/internal/des"
	"mllibstar/internal/detrand"
	"mllibstar/internal/obs"
	"mllibstar/internal/trace"
	"mllibstar/internal/vec"
)

// Context is the driver-side handle for running stages, the analogue of a
// SparkContext. All Context methods must be called from the driver process.
type Context struct {
	Cluster  *Cluster
	Cfg      Config
	stageSeq int
	nextRDD  int
	specSeq  int
	rng      *rand.Rand
	pool     *vec.Pool
}

// NewContext returns a Context over the cluster with the given engine
// configuration.
func NewContext(c *Cluster, cfg Config) *Context {
	return &Context{Cluster: c, Cfg: cfg, rng: detrand.New(cfg.StragglerSeed), pool: vec.NewPool()}
}

// GetVec returns a zeroed model-sized buffer from the context's pool. The
// buffer's ownership transfers to the caller; return it with PutVec when the
// values are dead. Buffer identity never affects numerics (every buffer
// comes back zeroed), so pooling is outside the bit-identity contract.
func (ctx *Context) GetVec(n int) []float64 { return ctx.pool.Get(n) }

// PutVec recycles a buffer obtained from GetVec. The caller must not use b
// afterwards (the vecalias analyzer's pooled-buffer rule enforces this).
func (ctx *Context) PutVec(b []float64) { ctx.pool.Put(b) }

// Task is one unit of work in a stage, bound to a specific executor. Run
// executes on the executor's process; it performs real computation, charges
// it via Executor.Charge, optionally exchanges peer messages, and returns a
// result plus the payload size of that result in bytes.
type Task struct {
	Exec         string
	PayloadBytes float64 // extra bytes shipped with the task descriptor (e.g. a broadcast model)
	// Speculatable marks the task as safe to run twice (pure function of
	// its inputs, no peer messaging, no shared-state mutation) so the
	// scheduler may launch speculative copies against stragglers.
	Speculatable bool
	// Pure is the task's numeric computation, split from Run so its work can
	// be charged before Run begins: a side-effect-free closure (it owns every
	// buffer it writes and touches no simulation state) returning the
	// virtual-time work it performed. The first attempt of the task to start
	// runs it and charges the returned work (as Executor.Charge, under that
	// attempt's straggler factor), then invokes Run. Pure is a per-task memo:
	// a speculative copy reuses the first attempt's result and charges the
	// same work, so the closure runs exactly once.
	Pure func() (work float64)
	Run  func(p *des.Proc, ex *Executor) (result any, resultBytes float64)
}

// RunStage schedules the tasks, blocks until every task's result has reached
// the driver (the BSP barrier of a Spark stage), and returns the results in
// task order. Dispatch serializes through the driver's outbound NIC and
// per-task scheduler work; results serialize through the driver's inbound
// NIC — together these reproduce the driver bottleneck of the paper's
// Figure 3(a).
func (ctx *Context) RunStage(p *des.Proc, name string, tasks []Task) []any {
	if len(tasks) == 0 {
		return nil
	}
	ctx.stageSeq++
	replyTag := fmt.Sprintf("res:%d", ctx.stageSeq)
	driver := ctx.Cluster.Net.Node(ctx.Cluster.Driver)
	rec := ctx.Cluster.Net.Recorder()
	stageStart := p.Now()
	rec.Mark(stageStart, "stage "+name+" start")

	// One runner per task, shared by the original and any speculative copy,
	// so the task's Pure memo is shared too.
	runners := make([]func(p *des.Proc, ex *Executor) (any, float64), len(tasks))
	for i, t := range tasks {
		runners[i] = taskRunner(t)
	}

	for i, t := range tasks {
		if ctx.Cfg.SchedulerWork > 0 {
			driver.ComputeKind(p, ctx.Cfg.SchedulerWork, trace.Stage, "schedule "+name)
		}
		msg := &taskMsg{index: i, replyTag: replyTag, envelope: ctx.Cfg.ResultBytes, run: ctx.withStraggler(runners[i])}
		driver.Send(p, ctx.Cluster.reroute(t.Exec, i), "task", ctx.Cfg.TaskBytes+t.PayloadBytes, msg)
	}

	// Collect results; with speculation enabled, once the quantile of tasks
	// has finished, launch one copy of each Speculatable straggler on
	// another live executor and take whichever finishes first — Spark's
	// spark.speculation behaviour.
	results := make([]any, len(tasks))
	done := make([]bool, len(tasks))
	received := 0
	speculated := false
	quantile := ctx.Cfg.SpeculationQuantile
	for received < len(tasks) {
		m := driver.Recv(p, replyTag)
		tr := m.Payload.(*taskResult)
		if done[tr.index] {
			continue // a speculative copy's loser; result discarded
		}
		done[tr.index] = true
		results[tr.index] = tr.result
		received++
		if quantile > 0 && !speculated && received >= int(float64(len(tasks))*quantile) && received < len(tasks) {
			speculated = true
			for i, t := range tasks {
				if done[i] || !t.Speculatable {
					continue
				}
				copyTo := ctx.Cluster.reroute(ctx.pickSpeculationHost(t.Exec), i)
				msg := &taskMsg{index: i, replyTag: replyTag, envelope: ctx.Cfg.ResultBytes, run: ctx.withStraggler(runners[i])}
				driver.Send(p, copyTo, "task", ctx.Cfg.TaskBytes+t.PayloadBytes, msg)
			}
		}
	}
	rec.Mark(p.Now(), "stage "+name+" end")
	obs.Active().Stage(ctx.Cluster.Driver, name, stageStart, p.Now())
	return results
}

// taskRunner composes a task's Pure closure with its Run body: the first
// attempt to start runs Pure and remembers its work, and every attempt
// charges that work (inside its straggler wrapper, so it is inflated exactly
// like inline work) before running. An original and a speculative copy of the
// same task therefore share one computation and charge the same work.
func taskRunner(t Task) func(p *des.Proc, ex *Executor) (any, float64) {
	if t.Pure == nil {
		return t.Run
	}
	var (
		ran  bool
		work float64
	)
	return func(p *des.Proc, ex *Executor) (any, float64) {
		if !ran {
			work = t.Pure()
			ran = true
		}
		ex.Charge(p, work)
		return t.Run(p, ex)
	}
}

// withStraggler wraps a task runner with this dispatch's sampled straggler
// slowdown (uniform by default; Bernoulli heavy tail when StragglerProb is
// set). Every dispatch — original or speculative copy — draws its own fate.
func (ctx *Context) withStraggler(run func(p *des.Proc, ex *Executor) (any, float64)) func(p *des.Proc, ex *Executor) (any, float64) {
	f := ctx.Cfg.StragglerFactor
	if f <= 0 {
		return run
	}
	slow := 1 + ctx.rng.Float64()*f
	if p := ctx.Cfg.StragglerProb; p > 0 {
		if ctx.rng.Float64() < p {
			slow = 1 + f
		} else {
			slow = 1
		}
	}
	inner := run
	return func(p *des.Proc, ex *Executor) (any, float64) {
		prev := ex.slowdown
		ex.slowdown = slow
		defer func() { ex.slowdown = prev }()
		return inner(p, ex)
	}
}

// pickSpeculationHost chooses a different live executor than the original
// assignment, round-robin over the alive set.
func (ctx *Context) pickSpeculationHost(original string) string {
	alive := ctx.Cluster.Alive()
	if len(alive) <= 1 {
		return original
	}
	ctx.specSeq++
	pick := alive[ctx.specSeq%len(alive)]
	if pick == original {
		ctx.specSeq++
		pick = alive[ctx.specSeq%len(alive)]
	}
	return pick
}

// RoundRobin assigns n tasks over the cluster's executors in order,
// producing the executor name for task i.
func (ctx *Context) RoundRobin(i int) string {
	execs := ctx.Cluster.Execs
	return execs[i%len(execs)]
}

// NumExecutors returns the number of executors in the cluster.
func (ctx *Context) NumExecutors() int { return len(ctx.Cluster.Execs) }

// Stages returns how many stages this context has run.
func (ctx *Context) Stages() int { return ctx.stageSeq }
