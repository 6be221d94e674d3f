package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"mllibstar"
	"mllibstar/internal/clusters"
	"mllibstar/internal/des"
	"mllibstar/internal/obs"
	"mllibstar/internal/serve"
	"mllibstar/internal/simnet"
)

// serveSpec describes the serving workload: the committed checkpoints on a
// sharded Cluster 1 deployment, driven by closed-loop clients, with a hot
// swap to the second checkpoint halfway through the expected traffic.
type serveSpec struct {
	shards, clients, perClient int
	qps                        float64
	nnz                        int
	zipfS                      float64
	batchMax                   int
	budget                     float64
	ckptA, ckptB               string // relative to the repository root
}

type serveInstance struct {
	spec    *serveSpec
	seed    int64
	weights [2][]float64 // epoch 0 and epoch 1 checkpoints
}

// serveRun is what one served load left behind, for the checks and the
// layer replays.
type serveRun struct {
	results  []serve.Result
	requests int
}

func (s *serveSpec) workload(name, why string) *Workload {
	return &Workload{
		Name: name, Why: why, Preset: "testdata/serve", Scale: 1, Cluster: clusters.Cluster1(s.shards).Name,
		Executors: s.shards,
		setup:     func(cfg RunConfig) (instance, error) { return s.setup(cfg) },
	}
}

// setup loads both checkpoints and builds one deployment to validate the
// configuration (each load builds its own: a simulation is single-use).
func (s *serveSpec) setup(cfg RunConfig) (*serveInstance, error) {
	in := &serveInstance{spec: s, seed: derive(cfg.Seed, 5)}
	for i, p := range []string{s.ckptA, s.ckptB} {
		w, err := loadWeights(filepath.Join(cfg.Root, p))
		if err != nil {
			return nil, err
		}
		in.weights[i] = w
	}
	if len(in.weights[0]) != len(in.weights[1]) {
		return nil, fmt.Errorf("serve: checkpoints have %d and %d weights", len(in.weights[0]), len(in.weights[1]))
	}
	if _, _, _, err := in.deploy(); err != nil {
		return nil, err
	}
	return in, nil
}

func loadWeights(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := mllibstar.LoadModel(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Weights) == 0 {
		return nil, fmt.Errorf("%s: checkpoint has no weights", path)
	}
	return m.Weights, nil
}

func (in *serveInstance) setupLayers() (float64, float64) { return 0, 0 }

// deploy builds the deployment, spawns the clients and the swap controller,
// and returns the simulation ready to run.
func (in *serveInstance) deploy() (*des.Sim, *simnet.Network, *serve.Load, error) {
	s := in.spec
	sim, net, names := clusters.Cluster1(s.shards).BuildServe(s.shards, s.clients, nil)
	d, err := serve.New(sim, net, serve.Names{Router: names.Router, Shards: names.Shards},
		serve.Config{Dim: len(in.weights[0]), BatchMax: s.batchMax, BatchBudget: s.budget}, in.weights[0])
	if err != nil {
		return nil, nil, nil, err
	}
	load, err := d.SpawnLoad(sim, names.Clients, serve.LoadConfig{
		PerClient: s.perClient, QPS: s.qps, NNZ: s.nnz, ZipfS: s.zipfS, ZipfV: 1, Seed: in.seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	// A client issues a request every clients/qps seconds on average, or
	// as soon as the previous reply arrives when that takes longer (the
	// batch budget plus about a millisecond of network and scoring), so
	// this lands the swap near the middle of the traffic.
	perRequest := math.Max(float64(s.clients)/s.qps, s.budget+1e-3)
	swapAt := float64(s.perClient) * perRequest / 2
	sim.Spawn("serve:ctl", func(p *des.Proc) {
		p.WaitUntil(swapAt)
		d.Install(p, in.weights[1])
		d.Swap(p)
	})
	return sim, net, load, nil
}

func (in *serveInstance) repeat(m *meter, traced bool) *outcome {
	o := &outcome{objective: math.NaN(), sysHost: map[string]float64{}}
	var sink *obs.Sink
	if traced {
		sink = obs.EnableCausal()
	}
	sim, net, load, err := in.deploy()
	if err != nil {
		if traced {
			obs.Disable()
		}
		o.op(fmt.Errorf("deploy: %v", err))
		return o
	}
	start := m.start()
	end := sim.Run()
	m.stop(start)
	if traced {
		obs.Disable()
		o.logs = append(o.logs, traceLog{events: sink.Events(), registry: sink.Registry()})
	}
	results := load.Results()
	o.add(in.check(results))
	o.simS = end
	for _, r := range results {
		o.simLat = append(o.simLat, r.Done-r.Sent)
	}
	o.msgs = float64(net.TotalMessages())
	o.bytes = net.TotalBytes()
	o.serve = &serveRun{results: results, requests: in.spec.perClient * in.spec.clients}
	return o
}

// check counts every request and the swap as operations. A request fails
// when it was dropped, or its score differs from the canonical margin under
// the epoch it reports (a request torn across the swap matches neither
// checkpoint), or its client saw epochs go backwards. The swap fails unless
// both epochs served traffic.
func (in *serveInstance) check(results []serve.Result) checks {
	var c checks
	s := in.spec
	perClient := make([]int, s.clients)
	lastEpoch := make([]int64, s.clients)
	var seen [2]bool
	epochs := [][]float64{in.weights[0], in.weights[1]}
	for _, r := range results {
		if r.Client < 0 || r.Client >= s.clients {
			c.op(fmt.Errorf("serve: result from unknown client %d", r.Client))
			continue
		}
		perClient[r.Client]++
		var err error
		switch {
		case r.Epoch < 0 || r.Epoch > 1:
			err = fmt.Errorf("serve: client %d seq %d scored under epoch %d", r.Client, r.Seq, r.Epoch)
		case r.Epoch < lastEpoch[r.Client]:
			err = fmt.Errorf("serve: client %d seq %d went back to epoch %d", r.Client, r.Seq, r.Epoch)
		case math.Float64bits(r.Margin) != math.Float64bits(serve.ExpectedMargin(epochs, r)):
			err = fmt.Errorf("serve: client %d seq %d margin %v != expected %v", r.Client, r.Seq,
				r.Margin, serve.ExpectedMargin(epochs, r))
		}
		if err == nil {
			lastEpoch[r.Client] = r.Epoch
			seen[r.Epoch] = true
		}
		c.op(err)
	}
	for i, n := range perClient {
		for ; n < s.perClient; n++ {
			c.op(fmt.Errorf("serve: client %d request dropped", i))
		}
	}
	if !seen[0] || !seen[1] {
		c.op(fmt.Errorf("serve: swap did not split traffic (epoch 0 served: %v, epoch 1 served: %v)", seen[0], seen[1]))
	} else {
		c.op(nil)
	}
	return c
}

// parity: the serving workload runs no mode switches.
func (in *serveInstance) parity(ref *outcome) checks { return checks{} }
