package models

import (
	"fmt"
	"strings"
	"testing"

	"opentla/internal/check"
	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/metrics"
	"opentla/internal/obs"
	"opentla/internal/reduce"
	"opentla/internal/state"
	"opentla/internal/ts"
)

// symReduce is the -reduce sym configuration for a model: canonicalization
// under its declared value group, inert when it declares none.
func symReduce(m Model) *reduce.Config {
	return &reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: m.Symmetry}
}

// reductionProbe is a safety property checked on both the full and the
// reduced graph. Every probe is invariant under the model's declared
// symmetry group, so a disagreement witnesses a reduction bug.
type reductionProbe struct {
	name string
	f    form.Formula
}

// buildProbes assembles the cross-check properties for a model:
//
//   - boxes: the conjunction of every component's □[N]_v — holds by
//     construction, and is group-invariant because symmetry validation
//     checks every action against the group.
//   - init-pin: □(v = v₀ for every variable v outside the value orbit),
//     pinning the state to its initial binding. Violated whenever any such
//     variable ever changes, so it exercises the counterexample path.
//     Variables of the value orbit are excluded (v = 0 is not invariant
//     under value permutation).
func buildProbes(m Model, full *ts.Graph) []reductionProbe {
	var boxes []form.Formula
	for _, c := range m.Components {
		boxes = append(boxes, c.Box())
	}
	orbit := make(map[string]bool)
	if m.Symmetry != nil {
		for _, v := range m.Symmetry.Vars {
			orbit[v] = true
		}
	}
	init := full.States[full.Inits[0]]
	var pins []form.Expr
	for _, v := range init.Vars() {
		if !orbit[v] {
			pins = append(pins, form.Eq(form.Var(v), form.Const(init.MustGet(v))))
		}
	}
	return []reductionProbe{
		{name: "boxes", f: form.AndF(boxes...)},
		{name: "init-pin", f: form.AlwaysPred(form.And(pins...))},
	}
}

func buildModel(t *testing.T, m Model, rd *reduce.Config, workers int) *ts.Graph {
	t.Helper()
	sys := m.System()
	sys.Reduce = rd
	sys.Workers = workers
	g, err := sys.Build()
	if err != nil {
		t.Fatalf("%s: build (reduce=%v): %v", m.Name, rd, err)
	}
	return g
}

// TestReducedVsFullRegistry is the soundness cross-check the reduction
// mutants of internal/faultinject must fail: for every bundled model, the
// -reduce sym graph decides the same safety verdicts as the full graph,
// produces a counterexample exactly when the full check does, and never has
// more states. A model without a declared group must come out unreduced and
// the same size as the full graph. Run with -race and -cpu 1,4.
func TestReducedVsFullRegistry(t *testing.T) {
	// Value symmetry collapses data-distinguishing states in these models,
	// so they must strictly shrink; a non-shrinking "reduction" means the
	// canonicalizer silently stopped firing.
	strictSym := map[string]bool{"handshake": true, "queue": true, "doublequeue": true}

	for _, m := range All() {
		t.Run(m.Name, func(t *testing.T) {
			full := buildModel(t, m, nil, 0)
			red := buildModel(t, m, symReduce(m), 0)
			for _, p := range buildProbes(m, full) {
				t.Run("sym/"+p.name, func(t *testing.T) {
					if len(red.States) > len(full.States) {
						t.Errorf("reduced graph has MORE states than full: %d > %d",
							len(red.States), len(full.States))
					}
					if strictSym[m.Name] && len(red.States) >= len(full.States) {
						t.Errorf("value symmetry did not shrink the graph: %d >= %d states",
							len(red.States), len(full.States))
					}
					if m.Symmetry == nil && (red.Reduced() || len(red.States) != len(full.States)) {
						t.Errorf("sym without a declared group must be inert: reduced=%v, %d vs %d states",
							red.Reduced(), len(red.States), len(full.States))
					}
					fr, err := check.Safety(full, p.f)
					if err != nil {
						t.Fatalf("full check: %v", err)
					}
					rr, err := check.Safety(red, p.f)
					if err != nil {
						t.Fatalf("reduced check: %v", err)
					}
					if fr.Holds != rr.Holds {
						t.Errorf("verdict mismatch: full holds=%v, reduced holds=%v (%s / %s)",
							fr.Holds, rr.Holds, fr.Violation, rr.Violation)
					}
					if !rr.Holds && len(rr.Trace) == 0 {
						t.Errorf("reduced check violated without a counterexample trace")
					}
					if !fr.Holds && len(fr.Trace) == 0 {
						t.Errorf("full check violated without a counterexample trace")
					}
					t.Logf("states full=%d reduced=%d holds=%v", len(full.States), len(red.States), rr.Holds)
				})
			}
		})
	}
}

// reducedSignature renders a reduced graph's observable structure including
// per-edge real successor states, so two builds are identical iff their
// signatures match.
func reducedSignature(g *ts.Graph) string {
	var sb strings.Builder
	for id, s := range g.States {
		fmt.Fprintf(&sb, "%d:%s\n", id, s.Key())
	}
	fmt.Fprintf(&sb, "inits:%v reduced:%v\n", g.Inits, g.Reduced())
	for id := range g.States {
		fmt.Fprintf(&sb, "%d ->", id)
		g.ForEachSuccStep(id, func(to int, real *state.State) bool {
			fmt.Fprintf(&sb, " %d(%s)", to, real.Key())
			return true
		})
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestReducedBuildDeterministic extends the worker-count determinism
// guarantee to reduced builds: canonical numbering, adjacency, AND the
// per-edge real successors must be byte-identical at any worker count.
func TestReducedBuildDeterministic(t *testing.T) {
	for _, m := range All() {
		t.Run(m.Name+"/sym", func(t *testing.T) {
			want := reducedSignature(buildModel(t, m, symReduce(m), 1))
			for _, workers := range []int{2, 4, 8} {
				if got := reducedSignature(buildModel(t, m, symReduce(m), workers)); got != want {
					t.Errorf("reduced graph at workers=%d differs from sequential", workers)
				}
			}
		})
	}
}

// TestReducedBuildFlightRecorder pins the observability side of -reduce
// sym: a reduced build through an instrumented meter must land a "reduce"
// event in the flight-recorder ring, a reduction section in the run report
// whose expansion tallies are the graph's rows and edges, and the
// opentla_reduce_* counters in the metric snapshot. A model without a
// declared group builds unreduced and reports none of them. Run with -race
// and -cpu 1,4: the recorder seams are the only shared state between the
// build workers and the coordinator.
func TestReducedBuildFlightRecorder(t *testing.T) {
	for _, m := range All() {
		t.Run(m.Name, func(t *testing.T) {
			meter := engine.NoLimit()
			rec := obs.New(meter)
			reg := metrics.NewRegistry()
			rec.SetMetrics(reg)

			sys := m.System()
			sys.Reduce = symReduce(m)
			sys.Workers = 4
			g, err := sys.BuildWith(meter)
			if err != nil {
				t.Fatalf("reduced build: %v", err)
			}

			var statsEvents int
			for _, e := range rec.Events() {
				if e.Kind == "reduce" && strings.Contains(e.Msg, "sym-collapsed") {
					statsEvents++
				}
			}
			rep := rec.Finish("test", obs.Config{Model: m.Name, Workers: 4}, engine.Holds, "")
			byName := map[string]int64{}
			for _, p := range rep.Metrics {
				if p.Labels == "" {
					byName[p.Name] = p.Value
				}
			}

			if m.Symmetry == nil {
				if g.Reduced() || statsEvents != 0 || rep.Reduction != nil || byName["opentla_reduce_full_states_total"] != 0 {
					t.Errorf("sym without a declared group must be inert: reduced=%v, %d reduce events, report %+v",
						g.Reduced(), statsEvents, rep.Reduction)
				}
				return
			}
			if statsEvents == 0 {
				t.Fatalf("no reduce statistics event in the flight recorder ring: %+v", rec.Events())
			}
			if rep.Reduction == nil {
				t.Fatal("report has no reduction section")
			}
			if rep.Reduction.FullStates != int64(g.NumStates()) || rep.Reduction.FullSuccs != int64(g.NumEdges()) {
				t.Errorf("reduction section %+v does not match the graph's %d rows and %d edges",
					rep.Reduction, g.NumStates(), g.NumEdges())
			}
			if byName["opentla_reduce_full_states_total"] != int64(g.NumStates()) {
				t.Errorf("opentla_reduce_* counters absent from metrics snapshot: %v", byName)
			}
		})
	}
}
