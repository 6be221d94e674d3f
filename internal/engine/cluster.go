// Package engine implements a Spark-like BSP execution engine on top of the
// simulated cluster in package simnet: a driver that schedules stages of
// tasks onto long-running executors, RDDs with lineage, caching and
// recomputation, and the aggregation primitives MLlib's gradient-descent
// implementation uses (task dispatch with payload broadcast, hierarchical
// treeAggregate, and in-task peer-to-peer shuffles for AllReduce).
//
// Task functions execute real Go code — real gradients over real data — but
// charge their computation to the simulated clock through Executor.Charge,
// and all communication flows through simnet, so an experiment yields both a
// genuine convergence curve and a faithful distributed-execution timeline.
package engine

import (
	"fmt"

	"mllibstar/internal/des"
	"mllibstar/internal/simnet"
	"mllibstar/internal/trace"
)

// Config tunes the engine's overheads, mirroring the fixed costs of Spark's
// scheduler and serialization stack.
type Config struct {
	TaskBytes     float64 // serialized task descriptor size (driver → executor)
	ResultBytes   float64 // fixed result envelope size (executor → driver)
	SchedulerWork float64 // driver work units to schedule one task
	// SpeculationQuantile enables speculative execution: once this fraction
	// of a stage's tasks has completed, a copy of each still-running
	// Speculatable task is launched on another executor (0 = off; Spark's
	// spark.speculation.quantile defaults to 0.75).
	SpeculationQuantile float64
	StragglerFactor     float64 // ≥0; executor compute work is inflated by up to this fraction, sampled per task
	// StragglerProb switches the straggler model from uniform to heavy
	// tail: with probability StragglerProb a task is (1+StragglerFactor)x
	// slower, otherwise it runs at full speed — the rare severe stragglers
	// (GC pauses, co-tenant bursts) that speculative execution targets.
	StragglerProb float64
	StragglerSeed int64 // seed for straggler sampling
}

// DefaultConfig returns modest overheads suitable for unit tests.
func DefaultConfig() Config {
	return Config{TaskBytes: 1024, ResultBytes: 256}
}

// Cluster is a driver plus a set of executors on a simulated network.
type Cluster struct {
	Sim    *des.Sim
	Net    *simnet.Network
	Driver string
	Execs  []string
	execs  map[string]*Executor
}

// NewCluster builds a cluster from node specs. The first spec is the driver;
// the rest are executors. Executor server processes are spawned immediately
// and run until the simulation shuts down.
func NewCluster(sim *des.Sim, netCfg simnet.Config, specs []simnet.NodeSpec, rec *trace.Recorder) *Cluster {
	if len(specs) < 2 {
		panic("engine: need a driver and at least one executor")
	}
	net := simnet.New(sim, netCfg, specs, rec)
	c := &Cluster{
		Sim:    sim,
		Net:    net,
		Driver: specs[0].Name,
		execs:  map[string]*Executor{},
	}
	for _, sp := range specs[1:] {
		ex := &Executor{
			cluster: c,
			name:    sp.Name,
			node:    net.Node(sp.Name),
			blocks:  map[blockID]any{},
		}
		c.Execs = append(c.Execs, sp.Name)
		c.execs[sp.Name] = ex
		sim.Spawn("exec:"+sp.Name, ex.serve)
	}
	return c
}

// Executor returns the named executor, panicking on unknown names.
func (c *Cluster) Executor(name string) *Executor {
	ex, ok := c.execs[name]
	if !ok {
		panic(fmt.Sprintf("engine: unknown executor %q", name))
	}
	return ex
}

// blockID identifies a cached RDD partition.
type blockID struct {
	rdd  int
	part int
}

// Executor is a long-running worker: it receives task messages, runs them,
// and sends results back to the driver. It also hosts the block store for
// cached RDD partitions.
type Executor struct {
	cluster  *Cluster
	name     string
	node     *simnet.Node
	blocks   map[blockID]any
	slowdown float64 // per-task straggler multiplier set by the scheduler (0 = none)
	failed   bool    // out of service (see Cluster.FailExecutor)
}

// Name returns the executor's node name.
func (ex *Executor) Name() string { return ex.name }

// Node returns the underlying simulated node.
func (ex *Executor) Node() *simnet.Node { return ex.node }

// PeerSpec returns the recorded spec of any cluster node by name, so
// collectives can schedule chunk routing from the machine classes
// (internal/allreduce.RouteOrder) instead of naive round-robin.
func (ex *Executor) PeerSpec(name string) simnet.NodeSpec {
	return ex.cluster.Net.Node(name).Spec()
}

// Charge blocks the executor for work units of computation on the simulated
// clock (recorded as a Compute span). Task functions call this at the site
// of their real computation.
func (ex *Executor) Charge(p *des.Proc, work float64) {
	ex.node.Compute(p, work*ex.factor())
}

// ChargeKind is Charge with an explicit trace kind (Aggregate, Update, ...).
func (ex *Executor) ChargeKind(p *des.Proc, work float64, kind trace.Kind, note string) {
	ex.node.ComputeKind(p, work*ex.factor(), kind, note)
}

// factor returns the straggler multiplier in effect for the current task.
func (ex *Executor) factor() float64 {
	if ex.slowdown > 1 {
		return ex.slowdown
	}
	return 1
}

// Send transmits bytes to another cluster node from within a task — the
// peer-to-peer primitive AllReduce's shuffle rounds are built on.
func (ex *Executor) Send(p *des.Proc, to, tag string, bytes float64, payload any) {
	ex.node.Send(p, to, tag, bytes, payload)
}

// Recv receives a message sent to this executor with the given tag.
func (ex *Executor) Recv(p *des.Proc, tag string) *simnet.Message {
	return ex.node.Recv(p, tag)
}

// DropCache removes all cached partitions of the given RDD from this
// executor, forcing lineage recomputation on next access (fault injection).
func (ex *Executor) DropCache(rddID int) {
	victims := make([]blockID, 0)
	for id := range ex.blocks { //mlstar:nolint determinism -- order-insensitive: collecting a delete set
		if id.rdd == rddID {
			victims = append(victims, id)
		}
	}
	for _, id := range victims {
		delete(ex.blocks, id)
	}
}

// taskMsg is the driver→executor task descriptor.
type taskMsg struct {
	index    int
	replyTag string
	envelope float64 // fixed result envelope size configured by the Context
	run      func(p *des.Proc, ex *Executor) (result any, resultBytes float64)
}

// taskResult is the executor→driver reply.
type taskResult struct {
	index  int
	result any
}

// serve is the executor's server loop: take a task, run it, reply.
func (ex *Executor) serve(p *des.Proc) {
	for {
		msg := ex.node.Recv(p, "task")
		tm := msg.Payload.(*taskMsg)
		res, rb := tm.run(p, ex)
		ex.node.Send(p, ex.cluster.Driver, tm.replyTag, tm.envelope+rb,
			&taskResult{index: tm.index, result: res})
	}
}
