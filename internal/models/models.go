// Package models is the registry of bundled example systems — the paper's
// running examples packaged as component compositions that the specvet
// analyzer and CI can enumerate without knowing each package's
// constructors. Each entry lists the composed components, the step
// constraints the composition assumes (its Disjoint hypotheses), and the
// finite domains used for the Exec-generator audit.
package models

import (
	"fmt"
	"sort"

	"opentla/internal/arbiter"
	"opentla/internal/circular"
	"opentla/internal/form"
	"opentla/internal/handshake"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/value"
	"opentla/internal/vet"
)

// Model is one bundled example system.
type Model struct {
	// Name is the registry key used by specvet -model.
	Name string
	// Doc is a one-line description.
	Doc string
	// Components are the composed canonical-form components.
	Components []*spec.Component
	// Constraints are the composition's step constraints — the Disjoint
	// hypotheses it assumes.
	Constraints []ts.StepConstraint
	// Domains are the finite variable domains, enabling the Exec audit.
	Domains map[string][]value.Value
	// Interleaved records whether the composition's correctness argument
	// relies on the Disjoint hypothesis of Proposition 4; it raises
	// missing-coverage findings from info to warn.
	Interleaved bool
	// Symmetry is the model's declared data-value symmetry, if any;
	// -reduce=sym validates and exploits it.
	Symmetry *reduce.Symmetry
}

// System assembles the model as a buildable transition system. Each call
// returns a fresh value, so callers may set Workers, Cache, or Reduce
// without affecting other users of the registry.
func (m Model) System() *ts.System {
	return &ts.System{
		Name:        m.Name,
		Components:  m.Components,
		Constraints: m.Constraints,
		Domains:     m.Domains,
	}
}

// Vet runs the static analyzer over the model.
func (m Model) Vet() *vet.Result {
	return vet.Composition(m.Name, m.Components, m.Constraints, vet.Options{
		Domains:         m.Domains,
		RequireDisjoint: m.Interleaved,
	})
}

// All returns every bundled model, in stable registry order.
func All() []Model {
	qcfg := queue.Config{N: 1, Vals: 2}
	hc := handshake.Chan("c")
	hvals := value.Ints(0, 1)
	return []Model{
		{
			Name: "handshake",
			Doc:  "two-phase handshake protocol (§A.1): sender and receiver on one channel",
			Components: []*spec.Component{
				handshake.Sender("sender", hc, hvals),
				handshake.Receiver("receiver", hc),
			},
			Constraints: stepConstraints("disjoint(snd,ack)",
				form.DisjointSteps(hc.SndVars(), []string{hc.Ack()})),
			Domains:     hc.Domains(hvals),
			Interleaved: true,
			Symmetry:    handshake.ValueSymmetry(hc, hvals),
		},
		{
			Name: "queue",
			Doc:  "single N-queue with its environment (Fig. 3, §A.3)",
			Components: []*spec.Component{
				queue.QE("QE", queue.In, queue.Out, qcfg.ValueDomain()),
				queue.QM("QM", qcfg.N, queue.In, queue.Out, "q", qcfg.ValueDomain()),
			},
			Domains:  qcfg.Domains(),
			Symmetry: qcfg.SingleSymmetry(),
		},
		{
			Name: "doublequeue",
			Doc:  "two queues in series implementing a double queue (Fig. 7–9, §A.4)",
			Components: []*spec.Component{
				queue.QE("QE", queue.In, queue.Out, qcfg.ValueDomain()),
				qcfg.FirstQueue(),
				qcfg.SecondQueue(),
			},
			Constraints: queue.GConstraints(),
			Domains:     qcfg.DoubleDomains(),
			Interleaved: true,
			Symmetry:    qcfg.DoubleSymmetry(),
		},
		{
			Name: "arbiter",
			Doc:  "mutual-exclusion arbiter with two clients (§5 example)",
			Components: []*spec.Component{
				arbiter.Arbiter(),
				arbiter.Client(1),
				arbiter.Client(2),
			},
			Constraints: arbiter.GConstraints(),
			Domains:     arbiter.Domains(),
			Interleaved: true,
		},
		{
			Name: "circular",
			Doc:  "two copy processes in a circle (§1): the circularity example",
			Components: []*spec.Component{
				circular.CopyProcess("Pc", "c", "d"),
				circular.CopyProcess("Pd", "d", "c"),
			},
			Constraints: stepConstraints("disjoint(c,d)",
				form.DisjointSteps([]string{"c"}, []string{"d"})),
			Domains:     circular.Domains(),
			Interleaved: true,
		},
	}
}

// Names returns the registry keys in order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, m := range all {
		out[i] = m.Name
	}
	return out
}

// ByName returns the named model.
func ByName(name string) (Model, error) {
	for _, m := range All() {
		if m.Name == name {
			return m, nil
		}
	}
	known := Names()
	sort.Strings(known)
	return Model{}, fmt.Errorf("unknown model %q (known: %v)", name, known)
}

func stepConstraints(name string, exprs []form.Expr) []ts.StepConstraint {
	out := make([]ts.StepConstraint, len(exprs))
	for i, e := range exprs {
		out[i] = ts.StepConstraint{Name: name, Action: e}
	}
	return out
}
