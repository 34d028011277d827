package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"opentla/internal/absint"
	"opentla/internal/ag"
	"opentla/internal/engine"
	"opentla/internal/obs"
	"opentla/internal/vet"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// A synthetic tree: 10 s of run, of which a 4 s build spends 1 s in a cache
// load, a theorem spends 2 s in a product and 1.5 s in a liveness check.
func syntheticTree() *obs.Span {
	return &obs.Span{Name: "run", DurMS: 10000, Children: []*obs.Span{
		{Name: spanMeasure, DurMS: 9000, Children: []*obs.Span{
			{Name: "build:CQ", DurMS: 4000, Stats: obs.Stats{States: 198, Transitions: 564}, Children: []*obs.Span{
				{Name: spanLoad, DurMS: 1000},
			}},
			{Name: "theorem:Fig9", DurMS: 4500, Children: []*obs.Span{
				{Name: "H2b", DurMS: 4000, Children: []*obs.Span{
					{Name: "product:plus-base", DurMS: 2000, Stats: obs.Stats{States: 50}},
					{Name: "check:liveness", DurMS: 1500},
				}},
			}},
		}},
	}}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(syntheticTree())
	want := map[string]float64{
		"ts.build_s":       3,   // 4 s less the 1 s cache load nested inside
		"cache.load_s":     1,   // a leaf: all self
		"ts.product_s":     2,   //
		"check.liveness_s": 1.5, //
		"ag.self_s":        1,   // H2b 0.5 s + theorem 0.5 s
		"":                 1.5, // run 1 s + bench:measure 0.5 s
	}
	for k, v := range want {
		if !near(got[k], v) {
			t.Errorf("self time of %q = %v, want %v", k, got[k], v)
		}
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if !near(sum, 10) {
		t.Errorf("self times sum to %v s, want the root's 10 s", sum)
	}
}

func TestLayerMetrics(t *testing.T) {
	rep := &obs.Report{Span: syntheticTree(), Stats: obs.Stats{SCCs: 7}}
	tc := &timedCache{loads: 4, hits: 3, loadBytes: 2e6}
	m := finishLayers(layerMetrics(rep, tc))
	for k, v := range map[string]float64{
		"ts.build_measured_s":    3,
		"ts.states":              198,
		"ts.builds":              1,
		"ts.product_states":      50,
		"ts.states_per_s":        66,
		"ag.H2b_s":               4,
		"check.sccs":             7,
		"cache.hit_ratio":        0.75,
		"cache.load_mb":          2,
		"trace.attributed_share": 0.85,
	} {
		if !near(m[k], v) {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	// Reference values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 3.5, 1.75, 5.25},
	} {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); !near(m, c.med) || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%v: median %v, quartiles %v %v; want %v, %v %v", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if got := spread([]float64{4, 1, 3, 2}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func goodOutcome() pipelineOutcome {
	hyps := make([]ag.HypothesisResult, 10)
	for i := range hyps {
		hyps[i] = ag.HypothesisResult{Name: "H", Holds: true}
	}
	return pipelineOutcome{
		CQStates: 198, CQEdges: 564, CDQStates: 3186, CDQEdges: 10122, CDQHolds: true,
		Fig9: &ag.Report{Verdict: engine.Holds, Valid: true, Hypotheses: hyps, States: 9792},
		NoG: &ag.Report{Verdict: engine.Violated, Hypotheses: []ag.HypothesisResult{
			{Name: "H1[G]", Holds: true}, {Name: "H1[Q1]: C(E) /\\ conj C(Mj) => E_Q1"},
		}},
	}
}

func TestPipelineCheck(t *testing.T) {
	if err := coldWant.check(goodOutcome()); err != nil {
		t.Fatalf("correct outcome rejected: %v", err)
	}
	for name, mutate := range map[string]func(*pipelineOutcome){
		"wrong CQ size": func(o *pipelineOutcome) { o.CQStates = 197 },
		"wrong verdict": func(o *pipelineOutcome) { o.Fig9.Verdict, o.Fig9.Valid = engine.Violated, false },
		"failing hyp":   func(o *pipelineOutcome) { o.Fig9.Hypotheses[3].Holds = false },
		"noG holds":     func(o *pipelineOutcome) { o.NoG.Verdict, o.NoG.Valid = engine.Holds, true },
		"noG wrong hyp": func(o *pipelineOutcome) { o.NoG.Hypotheses[1].Name = "H2b" },
		"CDQ fails":     func(o *pipelineOutcome) { o.CDQHolds = false },
	} {
		o := goodOutcome()
		mutate(&o)
		if err := coldWant.check(o); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Reduced sizes are not asserted under symmetry reduction.
	o := goodOutcome()
	o.CQStates, o.CDQStates, o.Fig9.States = 51, 10348, 1
	if err := symWant.check(o); err != nil {
		t.Errorf("sym outcome rejected: %v", err)
	}
}

func TestVetCheck(t *testing.T) {
	res := func(states uint64, codes ...string) *vet.Result {
		r := &vet.Result{Bound: &absint.Bound{Finite: true, States: states}}
		for _, c := range codes {
			r.Diagnostics = append(r.Diagnostics, vet.Diagnostic{Code: c, Severity: vet.Warn})
		}
		return r
	}
	if err := refuseWant.check(res(refuseWant.Bound, "SV140"), true); err != nil {
		t.Fatalf("refusal rejected: %v", err)
	}
	if refuseWant.check(res(refuseWant.Bound, "SV140"), false) == nil {
		t.Error("run within budget accepted")
	}
	if refuseWant.check(res(refuseWant.Bound-1, "SV140"), true) == nil {
		t.Error("wrong bound accepted")
	}
	if refuseWant.check(res(refuseWant.Bound), true) == nil {
		t.Error("refusal without SV140 accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with the
// metrics the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s in BENCHMARK.json:\n%v\nbenchmark prints:\n%v", what, g, w)
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
}
