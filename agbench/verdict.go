package main

import (
	"fmt"
	"strings"

	"opentla/internal/ag"
	"opentla/internal/engine"
	"opentla/internal/vet"
)

// pipelineOutcome is what one run of the Appendix A pipeline decided: the
// graph sizes and verdicts the benchmark checks before it trusts a timing.
type pipelineOutcome struct {
	CQStates, CQEdges   int
	CDQStates, CDQEdges int
	// CDQHolds is the §A.4 verdict: CDQ satisfies QE^dbl and implements
	// CQ^dbl under the refinement mapping.
	CDQHolds bool
	Fig9     *ag.Report
	NoG      *ag.Report
}

// pipelineWant is the expected outcome. Zero sizes are not asserted: a
// reduced graph's size is what a reduction change legitimately moves, and
// so is the total number of states explored.
type pipelineWant struct {
	CQStates, CQEdges   int
	CDQStates, CDQEdges int
	// Fig9Hyps is the number of Fig. 9 hypotheses, all of which must hold.
	Fig9Hyps int
	// Fig9States is the report's largest graph; 0 when it may be reduced.
	Fig9States int
	// NoGFirstFail prefixes the name of formula (3)'s first failing
	// hypothesis.
	NoGFirstFail string
}

// check returns nil when got matches w, or an error naming the first
// mismatch.
func (w pipelineWant) check(got pipelineOutcome) error {
	size := func(what string, want, have int) error {
		if want != 0 && have != want {
			return fmt.Errorf("%s: got %d, want %d", what, have, want)
		}
		return nil
	}
	for _, err := range []error{
		size("CQ states", w.CQStates, got.CQStates),
		size("CQ edges", w.CQEdges, got.CQEdges),
		size("CDQ states", w.CDQStates, got.CDQStates),
		size("CDQ edges", w.CDQEdges, got.CDQEdges),
	} {
		if err != nil {
			return err
		}
	}
	if !got.CDQHolds {
		return fmt.Errorf("CDQ => CQ^dbl: not established")
	}
	f := got.Fig9
	if f == nil || f.Verdict != engine.Holds || !f.Valid {
		return fmt.Errorf("Fig. 9 theorem: want HOLDS, got %s", verdictOf(f))
	}
	if len(f.Hypotheses) != w.Fig9Hyps {
		return fmt.Errorf("Fig. 9 theorem: %d hypotheses, want %d", len(f.Hypotheses), w.Fig9Hyps)
	}
	for _, h := range f.Hypotheses {
		if !h.Holds {
			return fmt.Errorf("Fig. 9 theorem: %s fails", h.Name)
		}
	}
	if err := size("Fig. 9 largest graph", w.Fig9States, f.States); err != nil {
		return err
	}
	g := got.NoG
	if g == nil || g.Verdict != engine.Violated || g.Valid {
		return fmt.Errorf("formula (3) without G: want NOT ESTABLISHED, got %s", verdictOf(g))
	}
	for _, h := range g.Hypotheses {
		if !h.Holds {
			if !strings.HasPrefix(h.Name, w.NoGFirstFail) {
				return fmt.Errorf("formula (3) without G: first failing hypothesis %q, want %s", h.Name, w.NoGFirstFail)
			}
			return nil
		}
	}
	return fmt.Errorf("formula (3) without G: no failing hypothesis")
}

func verdictOf(r *ag.Report) string {
	if r == nil {
		return "no report"
	}
	return r.Verdict.String()
}

// vetWant is the expected strict-vet refusal: the state-space bound and the
// SV140 warning that makes strict mode refuse the run.
type vetWant struct {
	Budget int64
	Bound  uint64
}

// check returns nil when res is a strict-mode refusal for exceeding the
// budget with exactly the expected bound. overBudget is CheckBudget's answer.
func (w vetWant) check(res *vet.Result, overBudget bool) error {
	if res.HasErrors() {
		return fmt.Errorf("vet: %d unexpected errors:\n%s", res.Errors(), res)
	}
	if !overBudget {
		return fmt.Errorf("vet: bound %s within budget %d, want a refusal", res.Bound, w.Budget)
	}
	if b := res.Bound; b == nil || !b.Finite || b.States != w.Bound {
		return fmt.Errorf("vet: bound %s, want ≤ %d states", res.Bound, w.Bound)
	}
	for _, d := range res.Diagnostics {
		if d.Code == "SV140" {
			return nil
		}
	}
	return fmt.Errorf("vet: no SV140 diagnostic")
}
