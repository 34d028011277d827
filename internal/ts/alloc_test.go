package ts

import (
	"testing"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/value"
)

// freeRowSystem is one stuttering component beside one free variable over
// 64 values: every state steps to all 64 states, so the graph has 64
// states and 4096 edges, and all but the 64 initial states' copies are
// successors of states already committed.
func freeRowSystem() *System {
	return &System{
		Name: "free-row",
		Components: []*spec.Component{{
			Name:    "hold",
			Inputs:  []string{"f"},
			Outputs: []string{"x"},
			Init:    form.Eq(form.Var("x"), form.IntC(0)),
		}},
		Domains: map[string][]value.Value{"x": {value.Int(0)}, "f": value.Ints(0, 63)},
		Workers: 1,
	}
}

// TestBuildAllocsBelowEdgeCount guards the materialize-only-survivors
// discipline of successor generation: a candidate equal to a committed
// state is emitted as the committed pointer, and per-row dedup needs no
// set of its own, so a build allocates far fewer objects than it records
// edges. Cloning every accepted candidate costs at least one allocation per
// edge and fails the bound.
func TestBuildAllocsBelowEdgeCount(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	sys := freeRowSystem()
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 64 || g.NumEdges() != 4096 {
		t.Fatalf("graph has %d states and %d edges, want 64 and 4096", g.NumStates(), g.NumEdges())
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := sys.BuildWith(engine.NoLimit()); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(g.NumEdges()) / 4; allocs >= limit {
		t.Errorf("BuildWith allocates %.0f objects for %d edges, want < %.0f", allocs, g.NumEdges(), limit)
	}
	t.Logf("BuildWith: %.0f allocations for %d edges", allocs, g.NumEdges())
}
