package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/causal"
	"mllibstar/internal/clusters"
	"mllibstar/internal/data"
	"mllibstar/internal/des"
	"mllibstar/internal/engine"
	"mllibstar/internal/glm"
	"mllibstar/internal/obs"
	"mllibstar/internal/opt"
	"mllibstar/internal/sparse"
	"mllibstar/internal/vec"
)

// perLayer lists the per-layer metrics in report order. Every workload
// reports all of them; a layer the workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"base.host_s", "s"},
	{"data.generate_s", "s"},
	{"data.partition_s", "s"},
	{"data.kernel_replay_s", "s"},
	{"data.kernel_ns_per_nnz", "ns"},
	{"data.gradstream_ns_per_nnz", "ns"},
	{"data.csc_build_s", "s"},
	{"eval.replay_s", "s"},
	{"eval.ns_per_nnz", "ns"},
	{"engine.stage_replay_s", "s"},
	{"engine.treeagg_replay_s", "s"},
	{"des.wait_ns", "ns"},
	{"des.handoff_ns", "ns"},
	{"des.getuntil_ns", "ns"},
	{"des.allocs_per_event", "count"},
	{"simnet.msgs", "count"},
	{"simnet.bytes", "B"},
	{"simnet.ns_per_msg", "ns"},
	{"allreduce.replay_s", "s"},
	{"allreduce.ns_per_msg", "ns"},
	{"allreduce.allocs_per_msg", "count"},
	{"sparse.encode_ns_per_coord", "ns"},
	{"sparse.decode_ns_per_coord", "ns"},
	{"sparse.wire_ratio", "1"},
	{"train.host_s.mllib", "s"},
	{"train.host_s.mllibstar", "s"},
	{"train.host_s.lbfgsstar", "s"},
	{"serve.host_us_per_req", "us"},
	{"serve.batch_fill", "1"},
	{"serve.deadline_flush_share", "1"},
	{"go.gc_cpu_share", "1"},
	{"go.allocs", "count"},
	{"critpath.busy_share", "1"},
	{"critpath.latency_share", "1"},
	{"critpath.wait_share", "1"},
	{"attr.driver_share", "1"},
	{"attr.compute_share", "1"},
	{"attr.network_share", "1"},
	{"obs.overhead", "1"},
	{"obs.events", "count"},
	{"prof.share.des", "1"},
	{"prof.share.simnet", "1"},
	{"prof.share.allreduce", "1"},
	{"prof.share.sparse", "1"},
	{"prof.share.data", "1"},
	{"prof.share.engine", "1"},
	{"prof.share.vec", "1"},
	{"prof.share.glm", "1"},
	{"prof.share.serve", "1"},
	{"prof.share.obs", "1"},
	{"prof.share.gc", "1"},
}

// layerMetrics collects per-layer values by name.
type layerMetrics map[string]float64

// metrics returns every per-layer metric in report order; a non-finite
// value (a layer that did no work) reads 0.
func (lm layerMetrics) metrics() []Metric {
	out := make([]Metric, 0, len(perLayer))
	for _, l := range perLayer {
		v := lm[l.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out = append(out, Metric{l.name, v, l.unit})
	}
	return out
}

// shares gives each timed replay and trainer call as a share of its base,
// the untraced host_s.
func (lm layerMetrics) shares() []Metric {
	var out []Metric
	base := lm["base.host_s"]
	for _, l := range perLayer {
		if l.unit == "s" && l.name != "base.host_s" && base > 0 &&
			(strings.HasSuffix(l.name, "replay_s") || strings.HasPrefix(l.name, "train.host_s.")) {
			out = append(out, Metric{l.name + "/base.host_s", lm[l.name] / base, "1"})
		}
	}
	return out
}

// traceLog is one simulation's causal event log and metrics registry.
type traceLog struct {
	events   []obs.Event
	registry *obs.Registry
}

// analyzeLogs runs the causal critical path and the bottleneck attribution
// over each traced simulation; shares are weighted by the simulation's span.
func analyzeLogs(logs []traceLog, lm layerMetrics, c *checks) {
	var events, makespan, busy, latency, wait float64
	var span, driver, compute, network float64
	var batches, batchReqs, flushes, deadline float64
	for i, l := range logs {
		events += float64(len(l.events))
		g, err := causal.Analyze(l.events)
		if err != nil {
			c.fail(fmt.Errorf("traced simulation %d: causal graph: %v", i, err))
		} else {
			p := causal.CriticalPath(g)
			makespan += p.Makespan
			busy += p.Busy
			latency += p.Latency
			wait += p.Wait
		}
		if r := obs.Attribute(l.events); r.Span > 0 {
			span += r.Span
			driver += r.DriverShare * r.Span
			compute += r.ComputeShare * r.Span
			network += r.NetworkShare * r.Span
		}
		for _, f := range l.registry.Snapshot() {
			for _, s := range f.Series {
				switch f.Name {
				case "mlstar_serve_batch_requests":
					batches += float64(s.Count)
					batchReqs += s.Sum
				case "mlstar_serve_flushes_total":
					flushes += s.Value
					if s.Labels["reason"] == "deadline" {
						deadline += s.Value
					}
				}
			}
		}
	}
	lm["obs.events"] = events
	lm["critpath.busy_share"] = busy / makespan
	lm["critpath.latency_share"] = latency / makespan
	lm["critpath.wait_share"] = wait / makespan
	lm["attr.driver_share"] = driver / span
	lm["attr.compute_share"] = compute / span
	lm["attr.network_share"] = network / span
	lm["serve.deadline_flush_share"] = deadline / flushes
	// Mean batch size; the serving instance divides it by its BatchMax.
	lm["serve.batch_fill"] = batchReqs / batches
}

// timed returns the host seconds fn takes and the heap objects it allocates.
func timed(fn func()) (seconds, allocs float64) {
	_, n0 := readAllocs()
	t0 := time.Now()
	fn()
	d := since(t0)
	_, n1 := readAllocs()
	return d, n1 - n0
}

// headlineSteps is the step count of the workload's headline run.
func (t *trainInstance) headlineSteps(ref *outcome) int {
	if len(ref.results) == 0 {
		return 0
	}
	return ref.results[len(ref.results)-1].CommSteps
}

// support returns the sorted feature columns a partition touches.
func support(v data.View, dim int) []int {
	seen := make([]bool, dim)
	for i := 0; i < v.NumRows(); i++ {
		_, ind, _ := v.Row(i)
		for _, j := range ind {
			seen[j] = true
		}
	}
	var out []int
	for j, on := range seen {
		if on {
			out = append(out, j)
		}
	}
	return out
}

// kernelKind and collectiveKind name which local pass and which collective
// a training workload's headline system runs.
type kernelKind int

const (
	kernelSGD      kernelKind = iota // MLlib*'s per-example SGD pass (lazy L2 when regularized)
	kernelGradLoss                   // LBFGS*'s fused gradient-and-loss pass
)

type collectiveKind int

const (
	collectiveDelta    collectiveKind = iota // AverageDelta of local models against the step-start model
	collectiveProduced                       // AverageProduced of gradients from a producer
)

// layers replays the training workload's calls into each layer.
func (t *trainInstance) layers(ref *outcome, lm layerMetrics) {
	in := t.in
	steps := t.headlineSteps(ref)
	head := t.spec.systems[len(t.spec.systems)-1]
	var final []float64
	if len(ref.results) > 0 {
		final = ref.results[len(ref.results)-1].FinalW
	}

	// Local passes: the headline's kernel over every partition, per step.
	var nnz float64
	for _, p := range in.parts {
		nnz += float64(p.NNZ())
	}
	secs, _ := timed(func() {
		models := make([][]float64, len(in.parts))
		g := make([]float64, in.dim)
		sc := opt.NewPassScratch()
		for i := range models {
			models[i] = make([]float64, in.dim)
		}
		for s := 0; s < steps; s++ {
			for i, p := range in.parts {
				switch t.spec.kernel {
				case kernelSGD:
					opt.LocalPassView(head.obj, models[i], p, opt.Const(0.1), 0, sc)
				case kernelGradLoss:
					data.GradAndLoss(head.obj, models[i], p, g)
				}
			}
		}
	})
	lm["data.kernel_replay_s"] = secs
	lm["data.kernel_ns_per_nnz"] = secs / (nnz * float64(steps)) * 1e9

	// Feature-major stream on fresh views: the first NewGradStream of a view
	// builds its CSC mirror; Prepare and Produce then make the gradient.
	var cscS, streamS float64
	w := make([]float64, in.dim)
	for _, p := range in.parts {
		fresh := data.PackExamples(p.Examples()).View()
		g := make([]float64, in.dim+1)
		var gs *data.GradStream
		d, _ := timed(func() { gs = data.NewGradStream(head.obj, w, fresh, g, true, 2*float64(fresh.NNZ())) })
		cscS += d
		d, _ = timed(func() {
			gs.Prepare()
			const blocks = 64
			for b := 0; b < blocks; b++ {
				gs.Produce(b*len(g)/blocks, (b+1)*len(g)/blocks)
			}
		})
		streamS += d
	}
	lm["data.csc_build_s"] = cscS
	lm["data.gradstream_ns_per_nnz"] = streamS / nnz * 1e9

	// Evaluation: the evaluator's objective call, once per recorded point.
	var points int
	for _, r := range ref.results {
		points += r.Curve.Len()
	}
	evalNNZ := float64(glm.NNZTotal(in.eval))
	secs, _ = timed(func() {
		for i := 0; i < points; i++ {
			head.obj.Value(w, in.eval)
		}
	})
	lm["eval.replay_s"] = secs
	lm["eval.ns_per_nnz"] = secs / (evalNNZ * float64(points)) * 1e9

	t.engineReplays(lm)
	t.collectiveReplay(lm, steps, final)
	sparseReplay(lm, final, perturb(final, support(in.parts[0], in.dim)))
	simnetReplay(lm, t.spec.cluster(t.spec.executors))
}

// engineReplays times the Spark stage machinery without training compute:
// k no-op tasks per stage, and MLlib's broadcast plus treeAggregate at the
// workload's dim, for the first system's step count (MLlib's on fig4).
func (t *trainInstance) engineReplays(lm layerMetrics) {
	k, dim := t.spec.executors, t.in.dim
	steps := t.spec.systems[0].steps
	sim, cl, ctx := t.spec.cluster(k).Build(nil)
	sim.Spawn("replay:stages", func(p *des.Proc) {
		for s := 0; s < steps; s++ {
			tasks := make([]engine.Task, k)
			for i := range tasks {
				tasks[i] = engine.Task{Exec: cl.Execs[i], Run: func(*des.Proc, *engine.Executor) (any, float64) { return nil, 0 }}
			}
			ctx.RunStage(p, fmt.Sprintf("noop%d", s), tasks)
		}
	})
	lm["engine.stage_replay_s"], _ = timed(func() { sim.Run() })

	sim, _, ctx = t.spec.cluster(k).Build(nil)
	aggs := int(math.Ceil(math.Sqrt(float64(k))))
	sim.Spawn("replay:treeagg", func(p *des.Proc) {
		for s := 0; s < steps; s++ {
			ctx.BroadcastVec(p, fmt.Sprintf("bc%d", s), dim, false)
			sum := ctx.TreeAggregateVec(p, fmt.Sprintf("agg%d", s), dim+1, aggs, 0,
				func(int) ([]float64, float64) { return ctx.GetVec(dim + 1), 0 })
			ctx.PutVec(sum)
		}
	})
	lm["engine.treeagg_replay_s"], _ = timed(func() { sim.Run() })
}

// collectiveReplay runs the headline's collective alone: one process per
// executor, the workload's cluster, k, dim, modes (chunks, sparse, overlap)
// and step count, with every input precomputed. Local models differ from
// the step-start model on their partition's feature support, as after a
// local pass, so sparse coding sees the workload's delta density.
func (t *trainInstance) collectiveReplay(lm layerMetrics, steps int, final []float64) {
	k, dim := t.spec.executors, t.in.dim
	ref := make([]float64, dim)
	copy(ref, final)
	inputs := make([][]float64, k)
	for i := range inputs {
		inputs[i] = perturb(ref, support(t.in.parts[i], dim))
	}
	sim, cl, _ := t.spec.cluster(k).Build(nil)
	for i := 0; i < k; i++ {
		i := i
		ex := cl.Executor(cl.Execs[i])
		sim.Spawn(fmt.Sprintf("replay:ar%d", i), func(p *des.Proc) {
			local := make([]float64, dim+1)
			for s := 0; s < steps; s++ {
				switch t.spec.collective {
				case collectiveDelta:
					copy(local[:dim], inputs[i])
					allreduce.AverageDelta(p, ex, cl.Execs, i, fmt.Sprintf("s%d", s), local[:dim], ref)
				case collectiveProduced:
					prod := &copyProducer{src: inputs[i], dst: local, work: 2 * float64(t.in.parts[i].NNZ())}
					allreduce.AverageProduced(p, ex, cl.Execs, i, fmt.Sprintf("lbg%d", s), local, prod)
				}
			}
		})
	}
	secs, allocs := timed(func() { sim.Run() })
	msgs := float64(cl.Net.TotalMessages())
	lm["allreduce.replay_s"] = secs
	lm["allreduce.ns_per_msg"] = secs / msgs * 1e9
	lm["allreduce.allocs_per_msg"] = allocs / msgs
}

// copyProducer is a precomputed allreduce.Producer: it copies a finished
// vector block by block and charges a GradStream-shaped work split (half
// up front, half by coordinate share).
type copyProducer struct {
	src, dst []float64
	work     float64
}

func (c *copyProducer) Prepare()             {}
func (c *copyProducer) PrepareWork() float64 { return c.work / 2 }
func (c *copyProducer) Produce(lo, hi int) {
	for j := lo; j < hi; j++ {
		if j < len(c.src) {
			c.dst[j] = c.src[j]
		} else {
			c.dst[j] = 0
		}
	}
}
func (c *copyProducer) Work(lo, hi int) float64 {
	return c.work / 2 * float64(hi-lo) / float64(len(c.dst))
}

// perturb returns a copy of ref changed on the given coordinates, as a
// local pass changes the coordinates its partition touches.
func perturb(ref []float64, supp []int) []float64 {
	d := append([]float64(nil), ref...)
	for _, j := range supp {
		d[j] += 1e-3 * float64(j%7+1)
	}
	return d
}

// sparseReplay encodes and decodes d against ref, a delta of the
// workload's dim and density.
func sparseReplay(lm layerMetrics, ref, d []float64) {
	dim := len(ref)
	if dim == 0 {
		return
	}
	const reps = 200
	var enc sparse.Enc
	encS, _ := timed(func() {
		for r := 0; r < reps; r++ {
			enc = sparse.EncodeCopy(d, ref)
		}
	})
	dst := make([]float64, dim)
	decS, _ := timed(func() {
		for r := 0; r < reps; r++ {
			enc.DecodeInto(dst, ref)
		}
	})
	lm["sparse.encode_ns_per_coord"] = encS / float64(reps*dim) * 1e9
	lm["sparse.decode_ns_per_coord"] = decS / float64(reps*dim) * 1e9
	lm["sparse.wire_ratio"] = sparse.WireBytesFor(d, ref) / (float64(dim) * sparse.DenseCoordBytes)
}

// simnetReplay sends 1 KB messages around a ring of the workload's nodes:
// every node sends to the next and receives from the previous.
func simnetReplay(lm layerMetrics, spec clusters.Spec) {
	sim, net, names := spec.BuildNet(nil)
	const perNode = 4000
	for i, name := range names {
		to := names[(i+1)%len(names)]
		node := net.Node(name)
		sim.Spawn("replay:send-"+name, func(p *des.Proc) {
			for m := 0; m < perNode; m++ {
				node.Send(p, to, "ring", 1024, nil)
			}
		})
		sim.Spawn("replay:recv-"+name, func(p *des.Proc) {
			for m := 0; m < perNode; m++ {
				node.Recv(p, "ring")
			}
		})
	}
	secs, _ := timed(func() { sim.Run() })
	lm["simnet.ns_per_msg"] = secs / float64(net.TotalMessages()) * 1e9
}

// desReplays drives the event kernel alone: timed waits, a queue ping-pong,
// and GetUntil receives whose deadlines mostly expire.
func desReplays(lm layerMetrics) {
	const procs, waits = 64, 2000
	sim := des.New()
	for i := 0; i < procs; i++ {
		d := 1e-6 * float64(i+1)
		sim.Spawn(fmt.Sprintf("wait%d", i), func(p *des.Proc) {
			for n := 0; n < waits; n++ {
				p.Wait(d)
			}
		})
	}
	waitS, waitAllocs := timed(func() { sim.Run() })
	lm["des.wait_ns"] = waitS / (procs * waits) * 1e9

	const rounds = 50000
	sim = des.New()
	ping, pong := des.NewQueue[int](sim, "ping"), des.NewQueue[int](sim, "pong")
	sim.Spawn("ping", func(p *des.Proc) {
		for n := 0; n < rounds; n++ {
			ping.Put(n)
			pong.Get(p)
		}
	})
	sim.Spawn("pong", func(p *des.Proc) {
		for n := 0; n < rounds; n++ {
			pong.Put(ping.Get(p))
		}
	})
	handoffS, handoffAllocs := timed(func() { sim.Run() })
	lm["des.handoff_ns"] = handoffS / (2 * rounds) * 1e9

	// The producer puts one value every third deadline period, so two of
	// three receives expire and leave a stale wake-up behind.
	const gets = 60000
	sim = des.New()
	q := des.NewQueue[int](sim, "until")
	sim.Spawn("producer", func(p *des.Proc) {
		for n := 0; n < gets/3; n++ {
			p.Wait(3e-6)
			q.Put(n)
		}
	})
	sim.Spawn("consumer", func(p *des.Proc) {
		for n := 0; n < gets; n++ {
			q.GetUntil(p, p.Now()+1e-6)
		}
	})
	untilS, untilAllocs := timed(func() { sim.Run() })
	lm["des.getuntil_ns"] = untilS / gets * 1e9

	events := float64(procs*waits + 2*rounds + gets)
	lm["des.allocs_per_event"] = (waitAllocs + handoffAllocs + untilAllocs) / events
}

// layers replays the serving workload's calls into each layer it reaches.
func (in *serveInstance) layers(ref *outcome, lm layerMetrics) {
	if ref.serve == nil {
		return
	}
	rows := make([]glm.Example, len(ref.serve.results))
	var nnz float64
	for i, r := range ref.serve.results {
		rows[i] = glm.Example{Label: 1, X: vec.Sparse{Ind: r.Ind, Val: r.Val}}
		nnz += float64(len(r.Ind))
	}
	v := data.ViewOf(rows)
	w := in.weights[0]
	var out []data.BlockPartial
	secs, _ := timed(func() {
		const chunk = 8 // the batch size the router flushes at
		for lo := 0; lo < v.NumRows(); lo += chunk {
			hi := min(lo+chunk, v.NumRows())
			out = data.BlockMargins(v.Sub(lo, hi), w, 0, out[:0])
		}
	})
	lm["data.kernel_replay_s"] = secs
	lm["data.kernel_ns_per_nnz"] = secs / nnz * 1e9
	sparseReplay(lm, in.weights[0], in.weights[1])
	simnetReplay(lm, clusters.Cluster1(in.spec.shards))
	lm["serve.batch_fill"] /= float64(in.spec.batchMax)
	runtime.KeepAlive(out)
}
