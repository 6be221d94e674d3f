package bench

// Wall-clock cost of the telemetry layer. The obs=off / obs=on sub-runs let
// `make bench` report the recording overhead (mlstar-benchjson derives
// obs_overhead = ns/op(obs=on) / ns/op(obs=off) from the pair); obsevents/op
// reports how many structured events one Figure-4-style run generates.
// Results are bit-identical in both modes — see obs_parity_test.go — so
// these measure time only.

import (
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/obs"
)

// BenchmarkWallClockObs times the regularized MLlib-vs-MLlib* workload of
// Figure 4 with the telemetry sink disabled and enabled.
func BenchmarkWallClockObs(b *testing.B) {
	w := benchWorkload(b)
	for _, mode := range []struct {
		name string
		on   bool
	}{{"obs=off", false}, {"obs=on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var events float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var s *obs.Sink
				if mode.on {
					s = obs.Enable()
				}
				for _, sys := range []string{sysMLlib, sysMLlibStar} {
					prm := tuned(sys, "avazu", 0.1)
					prm.MaxSteps = 10
					if _, err := runSystem(sys, clusters.Test(4), w, prm, nil); err != nil {
						obs.Disable()
						b.Fatal(err)
					}
				}
				if mode.on {
					events += float64(s.Len())
					obs.Disable()
				}
			}
			b.StopTimer()
			if mode.on && b.N > 0 {
				b.ReportMetric(events/float64(b.N), "obsevents/op")
			}
		})
	}
}
