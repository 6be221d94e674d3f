// Package mllib implements the baseline the paper studies: Spark MLlib's
// mini-batch gradient descent for GLMs, i.e. the SendGradient paradigm of
// Algorithm 2 executed as BSP stages.
//
// Each communication step (1) broadcasts the current model with the task
// descriptors, (2) has every executor sample a mini batch from its cached
// partition and compute a gradient sum, (3) aggregates the gradients
// hierarchically through intermediate executors (treeAggregate), and (4)
// applies a single model update at the driver. The single-update-per-step
// pattern (bottleneck B1) and the driver-centric aggregation (bottleneck
// B2) are exactly the properties the paper's Figure 3(a) visualizes.
package mllib

import (
	"fmt"
	"math"
	"math/rand"

	"mllibstar/internal/data"
	"mllibstar/internal/des"
	"mllibstar/internal/detrand"
	"mllibstar/internal/engine"
	"mllibstar/internal/glm"
	"mllibstar/internal/obs"
	"mllibstar/internal/sparse"
	"mllibstar/internal/trace"
	"mllibstar/internal/train"
	"mllibstar/internal/vec"
)

// System is the curve label for this trainer.
const System = "MLlib"

// Aggregators resolves the treeAggregate fan-in: the explicit value if set,
// otherwise ceil(sqrt(k)) — the branching of MLlib's default depth-2 tree.
func Aggregators(prm train.Params, k int) int {
	if prm.Aggregators > 0 {
		return prm.Aggregators
	}
	a := int(math.Ceil(math.Sqrt(float64(k))))
	if a < 1 {
		a = 1
	}
	return a
}

// Train runs SendGradient mini-batch gradient descent on the cluster behind
// ctx. parts must have one partition per executor, in executor order.
// evalData is the out-of-band evaluation set; dataset labels the curve.
func Train(ctx *engine.Context, parts []data.View, dim int, prm train.Params,
	evalData []glm.Example, dataset string) (*train.Result, error) {

	if err := prm.Validate(); err != nil {
		return nil, err
	}
	k := ctx.NumExecutors()
	if len(parts) != k {
		return nil, fmt.Errorf("mllib: %d partitions for %d executors", len(parts), k)
	}
	if prm.BatchFraction == 0 {
		prm.BatchFraction = 1
	}

	sim := ctx.Cluster.Sim
	net := ctx.Cluster.Net
	driver := net.Node(ctx.Cluster.Driver)
	ev := train.NewEvaluator(System, dataset, prm.Objective, evalData, prm.EvalEvery)
	aggs := Aggregators(prm, k)
	sched := prm.Schedule()

	res := &train.Result{System: System, Curve: ev.Curve}
	w := make([]float64, dim)
	// Per-executor sampled-row scratch, reused across supersteps: the
	// Bernoulli sampler appends row indices here instead of gathering a fresh
	// example slice every step. Each task writes only its own executor's
	// buffer.
	rowScratch := make([][]int32, k)

	sim.Spawn("driver:mllib", func(p *des.Proc) {
		ev.Record(0, p.Now(), w)
		for t := 1; t <= prm.MaxSteps; t++ {
			obs.Active().SetStep(t, p.Now())
			stepW := w // tasks read, never write, the current model
			// With sparse exchange on, the model broadcast is charged at its
			// nonzero-coded size and the gradient partials (whose support is
			// the mini batch's) ship compressed back through the tree.
			payload := sparse.WireBytesFor(stepW, nil)
			if prm.TorrentBroadcast {
				// Chunked broadcast in its own stage; the gradient stage
				// then ships only task descriptors. The chunks stay dense —
				// BitTorrent-style chunking already shares the load, and the
				// chunk protocol is outside the sparse layer.
				ctx.BroadcastVec(p, fmt.Sprintf("bc%d", t), dim, true)
				payload = 0
			}
			sum := ctx.TreeAggregateVec(p, fmt.Sprintf("mgd%d", t), dim+1, aggs, payload,
				func(i int) ([]float64, float64) {
					local := parts[i]
					rng := detrand.Step(prm.Seed, t, i)
					g := ctx.GetVec(dim + 1)
					var work, count int
					if prm.BatchFraction >= 1 {
						work = data.AddGradient(prm.Objective, stepW, local, g[:dim])
						count = local.NumRows()
					} else {
						rows := sampleRows(rng, local.NumRows(), prm.BatchFraction, &rowScratch[i])
						work = data.AddGradientRows(prm.Objective, stepW, local, rows, g[:dim])
						count = len(rows)
					}
					g[dim] = float64(count)
					// Sampling scans the partition; gradient work is nnz.
					return g, float64(work) + float64(local.NumRows())
				})
			count := sum[dim]
			if count > 0 {
				eta := sched(t - 1)
				inv := eta / count
				for j := 0; j < dim; j++ {
					w[j] -= inv*sum[j] + eta*prm.Objective.Reg.DerivAt(w[j])
				}
				driver.ComputeKind(p, float64(dim), trace.Update, "model update")
				res.Updates++
				obs.Active().Updates(t, ctx.Cluster.Driver, 1, p.Now())
			}
			ctx.PutVec(sum)
			res.CommSteps = t
			if obj, recorded := ev.Record(t, p.Now(), w); recorded {
				if prm.TargetObjective > 0 && obj <= prm.TargetObjective {
					break
				}
			}
			if prm.MaxSimTime > 0 && p.Now() >= prm.MaxSimTime {
				break
			}
		}
	})
	res.SimTime = sim.Run()
	res.FinalW = vec.Copy(w)
	res.TotalBytes = net.TotalBytes()
	return res, nil
}

// sampleRows draws a Bernoulli sample of the row indices [0, n), matching
// Spark's RDD.sample(false, fraction) used by MLlib's mini-batch step: one
// rng.Float64 per row, in row order, so the sampled rows are exactly the
// examples the old slice-gathering sampler kept. The indices accumulate into
// *buf, which is reused across supersteps — the per-step batch allocation is
// gone.
func sampleRows(rng *rand.Rand, n int, fraction float64, buf *[]int32) []int32 {
	out := (*buf)[:0]
	for r := 0; r < n; r++ {
		if rng.Float64() < fraction {
			out = append(out, int32(r))
		}
	}
	*buf = out
	return out
}
