package bench

import (
	"math"
	"strings"
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/train"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"fig1", "table1", "fig3", "bottleneck",
		"fig4", "fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f", "fig4g", "fig4h",
		"fig5", "fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f", "fig5g", "fig5h",
		"fig6", "fig6a", "fig6b", "fig6c", "fig6d",
		"ablation-summation", "ablation-lazyl2", "ablation-waves", "ablation-aggregators",
		"ext-lbfgs", "ext-staleness", "ext-reweight", "ext-torrent", "ext-bandwidth",
		"ext-loading", "ext-adagrad", "ext-speculation", "ext-svrg",
	}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("missing experiment %q: %v", id, err)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", len(All()), len(want))
	}
}

func TestByIDUnknown(t *testing.T) {
	_, err := ByID("nope")
	if err == nil || !strings.Contains(err.Error(), "fig4a") {
		t.Errorf("err = %v, want list of valid ids", err)
	}
}

func TestFig1IsStaticAndFast(t *testing.T) {
	r, err := must(t, "fig1").Run(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Lines) < 4 || r.Files["fig1_workloads.csv"] == "" {
		t.Errorf("report = %+v", r)
	}
	joined := strings.Join(r.Lines, "\n")
	for _, sys := range []string{"Angel", "XGBoost", "TensorFlow", "MLlib"} {
		if !strings.Contains(joined, sys) {
			t.Errorf("fig1 missing %s", sys)
		}
	}
}

func TestTable1MatchesPaperAndScale(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 100}
	r, err := must(t, "table1").Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Lines, "\n")
	if !strings.Contains(joined, "149639105") {
		t.Error("paper-scale kdd12 row missing")
	}
	if !strings.Contains(joined, "underdetermined") {
		t.Error("no underdetermined dataset in table")
	}
	if r.Files["table1_datasets.csv"] == "" {
		t.Error("missing csv")
	}
}

func TestReportText(t *testing.T) {
	r := &Report{ID: "x", Title: "T"}
	r.addLine("hello %d", 7)
	out := r.Text()
	if !strings.Contains(out, "== x: T ==") || !strings.Contains(out, "hello 7") {
		t.Errorf("text = %q", out)
	}
}

func TestSafeFilenames(t *testing.T) {
	cases := map[string]string{
		"MLlib*":   "MLlibstar",
		"MLlib+MA": "MLlib_MA",
		"Angel":    "Angel",
	}
	for in, want := range cases {
		if got := safe(in); got != want {
			t.Errorf("safe(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTunedCoversAllSystems(t *testing.T) {
	for _, sys := range []string{sysMLlib, sysMAvg, sysMLlibStar, sysPetuum, sysPetuumStar, sysAngel} {
		for _, l2 := range []float64{0, 0.1} {
			prm := tuned(sys, "kdd12", l2)
			if prm.Eta <= 0 {
				t.Errorf("%s l2=%g: eta %g", sys, l2, prm.Eta)
			}
			if prm.Objective.Reg.Lambda() != l2 {
				t.Errorf("%s: lambda = %g, want %g", sys, prm.Objective.Reg.Lambda(), l2)
			}
		}
	}
}

func TestTunedPanicsOnUnknownSystem(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	tuned("nope", "avazu", 0)
}

func TestGridSearchPicksBest(t *testing.T) {
	eta, err := gridSearch(func(eta float64) (float64, error) {
		// Parabola with minimum near 0.3.
		d := eta - 0.3
		return d * d, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if eta != 0.3 {
		t.Errorf("grid picked %g, want 0.3", eta)
	}
}

func TestWorkloadCacheReuses(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 50}
	a, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("workload not cached")
	}
	c, err := loadWorkload("avazu", RunConfig{Scale: 30000, EvalCap: 50})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different scales must not share a workload")
	}
}

func TestStepBudgetsOrdering(t *testing.T) {
	if stepBudget(sysMLlib) <= stepBudget(sysMLlibStar) {
		t.Error("the SendGradient baseline needs a larger budget than MLlib*")
	}
	if stepBudget(sysPetuumStar) <= stepBudget(sysAngel) {
		t.Error("per-batch systems need a larger budget than per-epoch systems")
	}
}

func TestRunSystemUnknown(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 50}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSystem("nope", clusters.Test(2), w, tuned(sysMLlib, "avazu", 0), nil); err == nil {
		t.Error("want error")
	}
}

func must(t *testing.T, id string) Experiment {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// requireSameResult fails unless the two results of a mode-parity pair are
// bit-identical in every numeric output, the virtual clock included.
func requireSameResult(t *testing.T, system string, off, on *train.Result) {
	t.Helper()
	if math.Float64bits(off.SimTime) != math.Float64bits(on.SimTime) {
		t.Errorf("%s: SimTime %v (off) != %v (on)", system, off.SimTime, on.SimTime)
	}
	if off.CommSteps != on.CommSteps || off.Updates != on.Updates {
		t.Errorf("%s: steps/updates (%d,%d) != (%d,%d)", system,
			off.CommSteps, off.Updates, on.CommSteps, on.Updates)
	}
	if len(off.FinalW) != len(on.FinalW) {
		t.Fatalf("%s: FinalW length %d != %d", system, len(off.FinalW), len(on.FinalW))
	}
	for j := range off.FinalW {
		if math.Float64bits(off.FinalW[j]) != math.Float64bits(on.FinalW[j]) {
			t.Fatalf("%s: FinalW[%d] = %x (off) != %x (on)", system, j,
				math.Float64bits(off.FinalW[j]), math.Float64bits(on.FinalW[j]))
		}
	}
	if offCSV, onCSV := off.Curve.CSV(true), on.Curve.CSV(true); offCSV != onCSV {
		t.Errorf("%s: convergence curves differ:\noff:\n%s\non:\n%s", system, offCSV, onCSV)
	}
}

func TestFigureReportsIncludeSVG(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	r, err := must(t, "fig4a").Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svg, ok := r.Files["fig4a.svg"]
	if !ok {
		t.Fatal("fig4a report missing SVG figure")
	}
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "MLlib*") {
		t.Error("svg malformed or missing series labels")
	}
	if _, ok := r.Files["fig4a_curves.csv"]; !ok {
		t.Error("missing the CSV table view")
	}
}
