package models

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// maxReferenceProduct bounds the domain product the reference explorer
// enumerates for every reachable state.
const maxReferenceProduct = 50_000

// refGraph is a naive explicit-state graph: states keyed by state.Key(),
// edges as "from -> to" key pairs, successors in discovery order.
type refGraph struct {
	states map[string]*state.State
	inits  []string
	edges  map[string]bool
	succ   map[string][]string
}

func newRefGraph() *refGraph {
	return &refGraph{states: map[string]*state.State{}, edges: map[string]bool{}, succ: map[string][]string{}}
}

func (r *refGraph) addEdge(from, to string) {
	if e := from + " -> " + to; !r.edges[e] {
		r.edges[e] = true
		r.succ[from] = append(r.succ[from], to)
	}
}

// referenceGraphs memoizes referenceExplore by system name: the explorer
// and the product test cross-check the same reference graphs, and the
// largest takes seconds to enumerate.
var referenceGraphs struct {
	sync.Mutex
	byName map[string]*refGraph
}

// reference returns the memoized reference graph of sys.
func reference(t *testing.T, sys *ts.System) *refGraph {
	t.Helper()
	referenceGraphs.Lock()
	defer referenceGraphs.Unlock()
	if r, ok := referenceGraphs.byName[sys.Name]; ok {
		return r
	}
	r := referenceExplore(t, sys)
	if referenceGraphs.byName == nil {
		referenceGraphs.byName = map[string]*refGraph{}
	}
	referenceGraphs.byName[sys.Name] = r
	return r
}

// referenceExplore is the differential oracle for ts.BuildWith: a
// string-keyed BFS whose initial states are the domain-product states
// satisfying every Init and init constraint, and whose successors of s are
// the domain-product states t such that ⟨s, t⟩ satisfies every component's
// [N]_⟨m,x⟩ and every step constraint. Everything is evaluated by the
// interpreter: no Exec generators, compiled predicates, verdict caches or
// committed-index probes.
func referenceExplore(t *testing.T, sys *ts.System) *refGraph {
	t.Helper()
	var all []*state.State
	value.ForEachAssignment(sys.Vars(), sys.Domains, func(a map[string]value.Value) bool {
		all = append(all, state.New(a))
		return true
	})
	var initPreds, stepPreds []form.Expr
	for _, c := range sys.Components {
		if c.Init != nil {
			initPreds = append(initPreds, c.Init)
		}
		stepPreds = append(stepPreds, c.SquareExpr())
	}
	initPreds = append(initPreds, sys.InitConstraints...)
	for _, sc := range sys.Constraints {
		stepPreds = append(stepPreds, sc.Action)
	}
	holdsAll := func(preds []form.Expr, st state.Step) bool {
		for _, p := range preds {
			ok, err := form.EvalBool(p, st, nil)
			if err != nil {
				t.Fatalf("reference: evaluating %s on %s: %v", p, st, err)
			}
			if !ok {
				return false
			}
		}
		return true
	}
	r := newRefGraph()
	var queue []*state.State
	visit := func(s *state.State) string {
		k := s.Key()
		if _, ok := r.states[k]; !ok {
			r.states[k] = s
			queue = append(queue, s)
		}
		return k
	}
	for _, s := range all {
		if holdsAll(initPreds, state.Step{From: s}) {
			r.inits = append(r.inits, visit(s))
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, u := range all {
			if holdsAll(stepPreds, state.Step{From: s, To: u}) {
				r.addEdge(s.Key(), visit(u))
			}
		}
	}
	return r
}

// referenceProduct runs the monitors over a reference graph: product states
// are keyed by the base Key plus the monitor values, successors come from
// Monitor.Init and Monitor.Step applied to every base edge, and every
// combination of allowed values is taken by recursion.
func referenceProduct(t *testing.T, base *refGraph, mons []*ts.Monitor) *refGraph {
	t.Helper()
	type pstate struct {
		base string
		vals []value.Value
	}
	r := newRefGraph()
	var queue []pstate
	visit := func(p pstate) string {
		k := productKey(p.base, p.vals)
		if _, ok := r.states[k]; !ok {
			r.states[k] = base.states[p.base]
			queue = append(queue, p)
		}
		return k
	}
	// combos expands per-monitor allowed values into every combination.
	var combos func(allowed [][]value.Value) [][]value.Value
	combos = func(allowed [][]value.Value) [][]value.Value {
		if len(allowed) == 0 {
			return [][]value.Value{nil}
		}
		var out [][]value.Value
		for _, v := range allowed[0] {
			for _, rest := range combos(allowed[1:]) {
				out = append(out, append([]value.Value{v}, rest...))
			}
		}
		return out
	}
	for _, b := range base.inits {
		var allowed [][]value.Value
		for _, m := range mons {
			vals, err := m.Init(base.states[b])
			if err != nil {
				t.Fatalf("reference product: monitor %s init: %v", m.Var, err)
			}
			allowed = append(allowed, vals)
		}
		for _, c := range combos(allowed) {
			r.inits = append(r.inits, visit(pstate{base: b, vals: c}))
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		from := productKey(p.base, p.vals)
		for _, to := range base.succ[p.base] {
			st := state.Step{From: base.states[p.base], To: base.states[to]}
			var allowed [][]value.Value
			for j, m := range mons {
				vals, err := m.Step(st, p.vals[j])
				if err != nil {
					t.Fatalf("reference product: monitor %s step: %v", m.Var, err)
				}
				allowed = append(allowed, vals)
			}
			for _, c := range combos(allowed) {
				r.addEdge(from, visit(pstate{base: to, vals: c}))
			}
		}
	}
	return r
}

func productKey(base string, vals []value.Value) string {
	var sb strings.Builder
	sb.WriteString(base)
	for _, v := range vals {
		sb.WriteByte('|')
		sb.WriteString(v.String())
	}
	return sb.String()
}

// graphKeys renders a built graph in the reference's terms, keying each
// state by key.
func graphKeys(g *ts.Graph, key func(*state.State) string) *refGraph {
	r := newRefGraph()
	for _, s := range g.States {
		r.states[key(s)] = s
	}
	for _, id := range g.Inits {
		r.inits = append(r.inits, key(g.States[id]))
	}
	g.ForEachEdge(func(from, to int) bool {
		r.addEdge(key(g.States[from]), key(g.States[to]))
		return true
	})
	return r
}

// diffGraphs reports the first differences between a built graph and the
// reference: state set, initial-state set and edge set.
func diffGraphs(t *testing.T, what string, got, want *refGraph) {
	t.Helper()
	sameSet := func(kind string, g, w []string) {
		sort.Strings(g)
		sort.Strings(w)
		if strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Errorf("%s: %s differ: got %d, reference %d", what, kind, len(g), len(w))
			missing, extra := setDiff(w, g), setDiff(g, w)
			for i := 0; i < len(missing) && i < 3; i++ {
				t.Errorf("  missing %s", missing[i])
			}
			for i := 0; i < len(extra) && i < 3; i++ {
				t.Errorf("  extra %s", extra[i])
			}
		}
	}
	sameSet("states", mapKeys(got.states), mapKeys(want.states))
	sameSet("initial states", dedup(got.inits), dedup(want.inits))
	sameSet("edges", mapKeys(got.edges), mapKeys(want.edges))
}

func mapKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func setDiff(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if !in[s] {
			out = append(out, s)
		}
	}
	return out
}

func dedup(keys []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// freeDisjointSystem is a hand-built composition with a free variable and a
// Disjoint step constraint: a copier owns y and copies the free input x, a
// toggler owns z, and the constraint forbids y and z changing together.
func freeDisjointSystem() *ts.System {
	copyY := form.And(form.Eq(form.PrimedVar("y"), form.Var("x")), form.Ne(form.PrimedVar("y"), form.Var("y")))
	flip := form.Eq(form.PrimedVar("z"), form.Sub(form.IntC(1), form.Var("z")))
	return &ts.System{
		Name: "free-disjoint",
		Components: []*spec.Component{
			{
				Name:    "copier",
				Inputs:  []string{"x"},
				Outputs: []string{"y"},
				Init:    form.Eq(form.Var("y"), form.IntC(0)),
				Actions: []spec.Action{{Name: "Copy", Def: copyY}},
			},
			{
				Name:    "toggler",
				Outputs: []string{"z"},
				Init:    form.Eq(form.Var("z"), form.IntC(0)),
				Actions: []spec.Action{{Name: "Flip", Def: flip}},
			},
		},
		Constraints: stepConstraints("disjoint(y,z)", form.DisjointSteps([]string{"y"}, []string{"z"})),
		Domains: map[string][]value.Value{
			"x": value.Ints(0, 2), "y": value.Ints(0, 2), "z": value.Bits(),
		},
	}
}

// referenceSystems lists the registry systems small enough to enumerate,
// plus the hand-built free-variable system.
func referenceSystems(t *testing.T) []*ts.System {
	var out []*ts.System
	for _, m := range All() {
		sys := m.System()
		if n := value.AssignmentCount(sys.Vars(), sys.Domains, maxReferenceProduct); n < 0 {
			t.Logf("%s: domain product exceeds %d states; not cross-checked", m.Name, maxReferenceProduct)
			continue
		}
		out = append(out, sys)
	}
	return append(out, freeDisjointSystem())
}

// referenceMonitors are a non-strict safety monitor over the first
// component and a +v monitor over the last, as the Composition Theorem
// check builds them.
func referenceMonitors(sys *ts.System) []*ts.Monitor {
	first, last := sys.Components[0], sys.Components[len(sys.Components)-1]
	return []*ts.Monitor{
		ts.SafetyMonitor("ref_alive", first.Init, []form.Expr{first.SquareExpr()}, false),
		ts.PlusMonitor("ref_plus", last.Init, []form.Expr{last.SquareExpr()}, form.VarTuple(first.Owned()...)),
	}
}

// TestReferenceExplorer checks ts.BuildWith against the naive reference
// explorer: the same states, initial states and edges at 1, 2 and 4
// workers, for every registry model within the enumeration bound and for a
// system with a free variable and a Disjoint constraint.
func TestReferenceExplorer(t *testing.T) {
	for _, sys := range referenceSystems(t) {
		t.Run(sys.Name, func(t *testing.T) {
			want := reference(t, sys)
			for _, workers := range []int{1, 2, 4} {
				sys.Workers = workers
				g, err := sys.Build()
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				diffGraphs(t, fmt.Sprintf("workers=%d", workers), graphKeys(g, (*state.State).Key), want)
				if g.NumEdges() != len(want.edges) {
					t.Errorf("workers=%d: graph has %d edges, reference %d distinct", workers, g.NumEdges(), len(want.edges))
				}
			}
			t.Logf("%d states, %d edges", len(want.states), len(want.edges))
		})
	}
}

// TestReferenceProduct checks ts.Product against the naive monitor product
// built from Monitor.Init and Monitor.Step over the reference graph.
func TestReferenceProduct(t *testing.T) {
	for _, sys := range referenceSystems(t) {
		t.Run(sys.Name, func(t *testing.T) {
			mons := referenceMonitors(sys)
			want := referenceProduct(t, reference(t, sys), mons)
			names := make([]string, len(mons))
			for i, m := range mons {
				names[i] = m.Var
			}
			key := func(s *state.State) string {
				vals := make([]value.Value, len(names))
				for i, n := range names {
					vals[i] = s.MustGet(n)
				}
				return productKey(s.Drop(names).Key(), vals)
			}
			for _, workers := range []int{1, 2, 4} {
				sys.Workers = workers
				g, err := sys.Build()
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				p, err := ts.Product(g, mons)
				if err != nil {
					t.Fatalf("workers=%d: product: %v", workers, err)
				}
				diffGraphs(t, fmt.Sprintf("workers=%d product", workers), graphKeys(p, key), want)
				if p.NumEdges() != len(want.edges) {
					t.Errorf("workers=%d: product has %d edges, reference %d distinct", workers, p.NumEdges(), len(want.edges))
				}
			}
			t.Logf("%d product states, %d product edges", len(want.states), len(want.edges))
		})
	}
}
