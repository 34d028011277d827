package ag_test

import (
	"reflect"
	"strings"
	"testing"

	"opentla/internal/ag"
	"opentla/internal/arbiter"
	"opentla/internal/circular"
	"opentla/internal/engine"
	"opentla/internal/obs"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/ts"
)

var fig9 = queue.Config{N: 1, Vals: 2}

// graphShape is what a check reads of a graph: its states in id order, its
// initial states and its CSR edges.
func graphShape(t *testing.T, sys *ts.System) []any {
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	keys := make([]string, len(snap.States))
	for i, s := range snap.States {
		keys[i] = s.Key()
	}
	return []any{keys, snap.Inits, snap.Offsets, snap.Targets}
}

// TestEnvGraphIgnoresFairness pins the claim the graph-major check rests
// on: exploration never reads fairness, so the closure system C(E) ∧
// ⋀C(M_j) and the full system E ∧ ⋀M_j build the same graph, and one of
// them serves hypotheses 1, 2a(i) and 2b. It covers Fig. 9 with and without
// G and the theorem of every registry model that has one.
func TestEnvGraphIgnoresFairness(t *testing.T) {
	noG := fig9.Fig9Theorem()
	noG.Pairs = noG.Pairs[1:]
	withFairness := 0
	for _, th := range []*ag.Theorem{fig9.Fig9Theorem(), noG, arbiter.Theorem(), circular.SafetyTheorem()} {
		closure, full := th.LHSSystem(true, true), th.LHSSystem(true, false)
		cd, _ := closure.CanonicalDesc()
		fd, _ := full.CanonicalDesc()
		if cd != fd {
			withFairness++
		}
		for _, workers := range []int{1, 4} {
			closure.Workers, full.Workers = workers, workers
			if !reflect.DeepEqual(graphShape(t, closure), graphShape(t, full)) {
				t.Errorf("%s at %d workers: closure and full graphs differ", th.Name, workers)
			}
		}
	}
	if withFairness == 0 {
		t.Error("no full system carries fairness; the comparison is vacuous")
	}
}

func countBuilds(s *obs.Span) int {
	n := 0
	if strings.HasPrefix(s.Name, "build:") {
		n++
	}
	for _, c := range s.Children {
		n += countBuilds(c)
	}
	return n
}

// TestFig9BuildsEachGraphOnce counts the graphs a Fig. 9 check explores:
// the environment and guarantees graphs, plus the reduced closure graph
// under symmetry reduction.
func TestFig9BuildsEachGraphOnce(t *testing.T) {
	for want, sym := range map[int]bool{2: false, 3: true} {
		th := fig9.Fig9Theorem()
		if sym {
			th.Reduce, th.Symmetry = reduce.Options{Sym: true}, fig9.DoubleSymmetry()
		}
		m := engine.NoLimit()
		rec := obs.New(m)
		rep, err := th.CheckWith(m)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != engine.Holds {
			t.Fatalf("sym=%v: verdict %v, want Holds\n%s", sym, rep.Verdict, rep)
		}
		if got := countBuilds(rec.Finish("test", obs.Config{}, rep.Verdict, "").Span); got != want {
			t.Errorf("sym=%v: %d build: spans, want %d", sym, got, want)
		}
	}
}
