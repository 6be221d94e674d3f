package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"mllibstar/internal/prof"
)

// RunConfig is one benchmark invocation's settings.
type RunConfig struct {
	Seed    int64
	Seconds float64 // length of the measured phase
	Traced  bool    // run the traced part and report per-layer metrics
	Root    string  // repository root
}

// Metric is one reported number.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Result is a benchmarked workload: the reported metrics (the JSON line),
// informational ones printed beside them, and the checks' tally.
type Result struct {
	Metrics   []Metric
	Info      []Metric
	Notes     []string
	Attempted int
	Failed    int
	Repeats   int
}

// FailRatio is operations failed over operations attempted.
func (r *Result) FailRatio() float64 { return float64(r.Failed) / float64(r.Attempted) }

// setup_s is the median of at least setupRuns set-ups, and of as many more
// as fit in setupSeconds (at most maxSetupRuns), so a set-up of a few
// milliseconds is still a steady median.
const (
	setupRuns    = 3
	setupSeconds = 1.0
	maxSetupRuns = 200
	minRepeats   = 3 // measured repeats per invocation, however short -seconds is
	mib          = 1 << 20
)

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"sim_s", "s"},
	{"sim_mean_ms", "ms"},
	{"sim_p99_ms", "ms"},
}

// currentModes are the mode flags last applied by setModes.
var currentModes []string

// setModes applies prof mode flags (for example -pipeline -chunks=8) to the
// simulator's switches, through the same flag surface the CLIs use. nil
// applies the CLI defaults.
func setModes(flags []string) error {
	fs := flag.NewFlagSet("modes", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	pc := prof.Register(fs)
	if err := fs.Parse(flags); err != nil {
		return fmt.Errorf("modes %q: %w", flags, err)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("modes %q: stray arguments %q", flags, fs.Args())
	}
	stop, err := pc.Start()
	if err != nil {
		return fmt.Errorf("modes %q: %w", flags, err)
	}
	stop() // mode flags start no profile or sink, so there is nothing to flush
	currentModes = flags
	return nil
}

// withModes runs fn under the given modes, then restores the modes that
// were in force before: the CLI defaults after a workload, the workload's
// own modes after one of its parity runs.
func withModes(flags []string, fn func() error) error {
	prev := currentModes
	if err := setModes(flags); err != nil {
		return err
	}
	defer func() {
		// prev parsed when it was applied; failing now is a bug.
		if err := setModes(prev); err != nil {
			panic(err)
		}
	}()
	return fn()
}

// Bench runs one workload under its modes and returns its metrics.
func Bench(w *Workload, cfg RunConfig) (*Result, error) {
	var res *Result
	err := withModes(w.Modes, func() error {
		var err error
		res, err = bench(w, cfg)
		return err
	})
	return res, err
}

func bench(w *Workload, cfg RunConfig) (*Result, error) {
	var setupS, setupCPU, generateS, partitionS []float64
	var inst instance
	begin := time.Now()
	for i := 0; i < setupRuns || (since(begin) < setupSeconds && i < maxSetupRuns); i++ {
		inst = nil
		runtime.GC()
		t0, c0 := time.Now(), processCPU()
		in, err := w.setup(cfg)
		if err != nil {
			return nil, err
		}
		setupCPU = append(setupCPU, processCPU()-c0)
		setupS = append(setupS, since(t0))
		g, p := in.setupLayers()
		generateS = append(generateS, g)
		partitionS = append(partitionS, p)
		inst = in
	}

	// The first repeat warms lazy caches (the CSC mirror of -overlap) and is
	// the reference every later repeat and the parity runs compare with.
	var c checks
	ref := inst.repeat(newMeter(), false)
	c.add(ref.checks)
	c.add(inst.parity(ref))

	// Return set-up and parity garbage to the OS, so the resident set of the
	// measured phase is the workload's own.
	debug.FreeOSMemory()
	rss := startRSS()
	m := newMeter()
	var host, cpu, alloc, allocObjs []float64
	sysHost := map[string][]float64{}
	phase := readRuntime()
	begin = time.Now()
	for n := 0; n < minRepeats || since(begin) < cfg.Seconds; n++ {
		runtime.GC()
		h0, c0, a0, o0 := m.hostS, m.cpuS, m.allocBytes, m.allocObjs
		o := inst.repeat(m, false)
		host = append(host, m.hostS-h0)
		cpu = append(cpu, m.cpuS-c0)
		alloc = append(alloc, m.allocBytes-a0)
		allocObjs = append(allocObjs, m.allocObjs-o0)
		for k, v := range o.sysHost {
			sysHost[k] = append(sysHost[k], v)
		}
		c.add(o.checks)
		c.deterministic(fmt.Sprintf("repeat %d", n+1), ref, o)
	}
	phaseEnd := readRuntime()
	peakRSS := rss.Stop()
	hostS := median(host)

	res := &Result{Repeats: len(host)}
	if !cfg.Traced {
		vals := map[string]float64{
			"setup_s":     median(setupCPU),
			"cpu_s":       median(cpu),
			"alloc_mb":    median(alloc) / mib,
			"peak_rss_mb": peakRSS,
			"sim_s":       ref.simS,
			"sim_mean_ms": mean(ref.simLat) * 1e3,
			"sim_p99_ms":  quantile(ref.simLat, 0.99) * 1e3,
		}
		for _, e := range endToEnd {
			res.Metrics = append(res.Metrics, Metric{e.name, vals[e.name], e.unit})
		}
	} else {
		lm := layerMetrics{
			"base.host_s":      hostS,
			"data.generate_s":  median(generateS),
			"data.partition_s": median(partitionS),
			"go.gc_cpu_share":  phaseEnd.gcShareSince(phase),
			"go.allocs":        median(allocObjs),
			"simnet.msgs":      ref.msgs,
			"simnet.bytes":     ref.bytes,
		}
		for k, v := range sysHost {
			lm["train.host_s."+k] = median(v)
		}
		if ref.serve != nil {
			lm["serve.host_us_per_req"] = hostS / float64(ref.serve.requests) * 1e6
		}
		c.add(traced(inst, ref, cfg, lm))
		inst.layers(ref, lm)
		desReplays(lm)
		res.Metrics = lm.metrics()
		res.Info = lm.shares()
	}
	if !math.IsNaN(ref.objective) { // a training workload
		res.Info = append(res.Info, Metric{"objective", ref.objective, "1"})
	}
	if ref.serve != nil {
		res.Info = append(res.Info, Metric{"req_per_s", float64(ref.serve.requests) / hostS, "1/s"})
	}
	res.Info = append(res.Info,
		Metric{"host_s", hostS, "s"},
		Metric{"host_s.min", minOf(host), "s"},
		Metric{"host_s.max", maxOf(host), "s"},
		Metric{"cpu_s.min", minOf(cpu), "s"},
		Metric{"cpu_s.max", maxOf(cpu), "s"},
		Metric{"setup_wall_s", median(setupS), "s"},
		Metric{"repeats", float64(len(host)), "count"},
		Metric{"sim_p50_ms", quantile(ref.simLat, 0.5) * 1e3, "ms"},
		Metric{"sim_msgs", ref.msgs, "count"},
	)
	res.Attempted, res.Failed, res.Notes = c.attempted, c.failed, c.notes
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Info = append(res.Info, Metric{"fail_ratio", res.FailRatio(), "1"})
	return res, nil
}

// traced runs the traced part: a CPU-profiled phase of untraced repeats,
// then one repeat with causal event recording, whose logs give the
// critical-path and attribution splits and the recording's overhead.
func traced(inst instance, ref *outcome, cfg RunConfig, lm layerMetrics) checks {
	var c checks
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		c.op(fmt.Errorf("cpu profile: %v", err))
		return c
	}
	begin := time.Now()
	for n := 0; n < 1 || since(begin) < cfg.Seconds/2; n++ {
		o := inst.repeat(newMeter(), false)
		c.add(o.checks)
		c.deterministic(fmt.Sprintf("profiled repeat %d", n+1), ref, o)
	}
	pprof.StopCPUProfile()
	shares, err := profileShares(buf.Bytes())
	if err != nil {
		c.op(fmt.Errorf("cpu profile: %v", err))
	}
	for _, pkg := range profPackages {
		lm["prof.share."+pkg] = shares[pkg]
	}

	runtime.GC()
	tm := newMeter()
	o := inst.repeat(tm, true)
	c.add(o.checks)
	c.deterministic("traced repeat", ref, o)
	lm["obs.overhead"] = tm.hostS / lm["base.host_s"]
	analyzeLogs(o.logs, lm, &c)
	return c
}

// deterministic fails o unless its simulated results repeat ref's exactly.
func (c *checks) deterministic(what string, ref, o *outcome) {
	if got, want := o.fingerprint(), ref.fingerprint(); got != want {
		c.fail(fmt.Errorf("%s: %s differs from the first run's %s", what, got, want))
	}
}

// fail records a failed check on an operation already counted.
func (c *checks) fail(err error) {
	c.failed++
	if len(c.notes) < 20 {
		c.notes = append(c.notes, err.Error())
	}
}

// meter accumulates host time, process CPU time and heap allocation over
// timed sections.
type meter struct {
	hostS, cpuS, allocBytes, allocObjs float64
}

type mark struct {
	t            time.Time
	cpu          float64
	bytes, count float64
}

// processCPU returns the process's user plus system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func newMeter() *meter { return &meter{} }

var allocSamples = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"}

func readAllocs() (bytes, count float64) {
	s := []metrics.Sample{{Name: allocSamples[0]}, {Name: allocSamples[1]}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

func (m *meter) start() mark {
	b, n := readAllocs()
	return mark{t: time.Now(), cpu: processCPU(), bytes: b, count: n}
}

// stop ends a timed section and returns its host seconds.
func (m *meter) stop(mk mark) float64 {
	d := since(mk.t)
	m.cpuS += processCPU() - mk.cpu
	b, n := readAllocs()
	m.hostS += d
	m.allocBytes += b - mk.bytes
	m.allocObjs += n - mk.count
	return d
}

// runtimeCPU is a reading of the runtime's CPU-time estimates.
type runtimeCPU struct{ gc, total float64 }

func readRuntime() runtimeCPU {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeCPU{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

func (r runtimeCPU) gcShareSince(before runtimeCPU) float64 {
	if d := r.total - before.total; d > 0 {
		return (r.gc - before.gc) / d
	}
	return 0
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func minOf(xs []float64) float64 {
	v := math.Inf(1)
	for _, x := range xs {
		v = math.Min(v, x)
	}
	return v
}

func maxOf(xs []float64) float64 {
	v := math.Inf(-1)
	for _, x := range xs {
		v = math.Max(v, x)
	}
	return v
}
