package main

import (
	"fmt"
	"math"
	"time"

	"mllibstar/internal/clusters"
	"mllibstar/internal/data"
	"mllibstar/internal/engine"
	"mllibstar/internal/glm"
	"mllibstar/internal/obs"
	"mllibstar/internal/train"
)

// trainSpec describes a training workload: a dataset preset on a cluster
// preset, and the trainer runs one repeat makes, in order. The last system
// is the headline one whose objective the workload reports.
type trainSpec struct {
	preset     string
	scale      float64
	cluster    func(executors int) clusters.Spec
	executors  int
	evalCap    int
	systems    []trainSystem
	parity     []parityCase
	kernel     kernelKind     // the local pass the layer replay times
	collective collectiveKind // the collective the layer replay times
}

type trainSystem struct {
	key   string // metric suffix: train.host_s.<key>
	steps int
	obj   glm.Objective // the objective run trains, for the result check
	run   func(ctx *engine.Context, in *trainInputs, steps int) (*train.Result, error)
}

// parityCase reruns the workload with one mode off. flags are the prof
// flags of that run. The numerics must match bit for bit; sameBytes also
// requires identical TotalBytes (the pipeline and overlap contract), and
// otherwise the mode-off run may not move fewer bytes (the sparse contract).
type parityCase struct {
	mode      string
	flags     []string
	sameBytes bool
}

// trainInputs are the generated, partitioned inputs of a training workload.
type trainInputs struct {
	name  string
	dim   int
	seed  int64
	parts []data.View
	eval  []glm.Example
}

type trainInstance struct {
	spec       *trainSpec
	in         *trainInputs
	generateS  float64
	partitionS float64
}

func (s *trainSpec) workload(name, why string, modes []string) *Workload {
	return &Workload{
		Name: name, Why: why, Preset: s.preset, Scale: s.scale, Cluster: s.cluster(s.executors).Name,
		Executors: s.executors, Modes: modes,
		setup: func(cfg RunConfig) (instance, error) { return s.setup(cfg) },
	}
}

// setup generates the dataset from the seed, partitions and CSR-packs it,
// draws the evaluation subsample, and builds the cluster once to validate
// its spec (each run builds its own: a simulation is single-use).
func (s *trainSpec) setup(cfg RunConfig) (*trainInstance, error) {
	spec, err := dataSpec(s.preset, s.scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ds := data.Generate(spec)
	t1 := time.Now()
	parts := ds.Partition(s.executors, derive(cfg.Seed, 2))
	t2 := time.Now()
	in := &trainInputs{
		name:  ds.Name,
		dim:   ds.Features,
		seed:  derive(cfg.Seed, 3),
		parts: parts,
		eval:  ds.Subsample(s.evalCap, derive(cfg.Seed, 4)).Examples,
	}
	s.cluster(s.executors).Build(nil)
	return &trainInstance{spec: s, in: in,
		generateS: t1.Sub(t0).Seconds(), partitionS: t2.Sub(t1).Seconds()}, nil
}

func (t *trainInstance) setupLayers() (float64, float64) { return t.generateS, t.partitionS }

// repeat runs every system of the workload once, each on a fresh cluster.
func (t *trainInstance) repeat(m *meter, traced bool) *outcome {
	o := &outcome{objective: math.NaN(), sysHost: map[string]float64{}}
	for _, sys := range t.spec.systems {
		var sink *obs.Sink
		if traced {
			// Before the build: the network records the cluster spec.
			sink = obs.EnableCausal()
		}
		_, cl, ctx := t.spec.cluster(t.spec.executors).Build(nil)
		start := m.start()
		res, err := sys.run(ctx, t.in, sys.steps)
		o.sysHost[sys.key] += m.stop(start)
		if traced {
			obs.Disable()
			o.logs = append(o.logs, traceLog{events: sink.Events(), registry: sink.Registry()})
		}
		o.op(t.check(sys, res, err))
		if err != nil || res == nil {
			continue
		}
		o.results = append(o.results, res)
		o.simS += res.SimTime
		pts := res.Curve.Points
		for i := 1; i < len(pts); i++ {
			o.simLat = append(o.simLat, pts[i].Time-pts[i-1].Time)
		}
		o.objective = res.Curve.Final().Objective
		o.msgs += float64(cl.Net.TotalMessages())
		o.bytes += res.TotalBytes
	}
	return o
}

// check validates one training run: it must succeed, take its full step
// budget, and its final model must reproduce the curve's last objective on
// the evaluation set.
func (t *trainInstance) check(sys trainSystem, res *train.Result, err error) error {
	key := sys.key
	if err != nil {
		return fmt.Errorf("%s: %v", key, err)
	}
	if res == nil || res.Curve == nil || res.Curve.Len() == 0 || len(res.FinalW) != t.in.dim {
		return fmt.Errorf("%s: incomplete result", key)
	}
	got := sys.obj.Value(res.FinalW, t.in.eval)
	want := res.Curve.Final().Objective
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%s: objective of FinalW %v != curve's last point %v", key, got, want)
	}
	if math.IsNaN(got) || math.IsInf(got, 0) {
		return fmt.Errorf("%s: non-finite objective %v", key, got)
	}
	return nil
}

// parity reruns the workload once per parity case with that mode off and
// compares every run with the headline run.
func (t *trainInstance) parity(ref *outcome) checks {
	var c checks
	for _, pc := range t.spec.parity {
		var off *outcome
		if err := withModes(pc.flags, func() error {
			off = t.repeat(newMeter(), false)
			return nil
		}); err != nil {
			c.op(fmt.Errorf("parity %s: %v", pc.mode, err))
			continue
		}
		c.add(off.checks)
		for i, res := range ref.results {
			if i >= len(off.results) {
				c.op(fmt.Errorf("parity %s: run %d missing with the mode off", pc.mode, i))
				continue
			}
			c.op(sameResult(pc, res, off.results[i]))
		}
	}
	return c
}

// sameResult is the contract the repository's parity suites pin.
func sameResult(pc parityCase, on, off *train.Result) error {
	if len(on.FinalW) != len(off.FinalW) {
		return fmt.Errorf("parity %s: FinalW length %d != %d", pc.mode, len(on.FinalW), len(off.FinalW))
	}
	for j := range on.FinalW {
		if math.Float64bits(on.FinalW[j]) != math.Float64bits(off.FinalW[j]) {
			return fmt.Errorf("parity %s: FinalW[%d] %v (on) != %v (off)", pc.mode, j, on.FinalW[j], off.FinalW[j])
		}
	}
	a, b := on.Curve.Points, off.Curve.Points
	if len(a) != len(b) {
		return fmt.Errorf("parity %s: %d curve points (on) != %d (off)", pc.mode, len(a), len(b))
	}
	for i := range a {
		if a[i].Step != b[i].Step || math.Float64bits(a[i].Objective) != math.Float64bits(b[i].Objective) {
			return fmt.Errorf("parity %s: curve point %d (%d, %v) (on) != (%d, %v) (off)", pc.mode, i,
				a[i].Step, a[i].Objective, b[i].Step, b[i].Objective)
		}
	}
	if pc.sameBytes && on.TotalBytes != off.TotalBytes {
		return fmt.Errorf("parity %s: TotalBytes %v (on) != %v (off)", pc.mode, on.TotalBytes, off.TotalBytes)
	}
	if !pc.sameBytes && on.TotalBytes > off.TotalBytes {
		return fmt.Errorf("parity %s: TotalBytes %v (on) > %v (off)", pc.mode, on.TotalBytes, off.TotalBytes)
	}
	return nil
}
