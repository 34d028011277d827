package reduce

import "opentla/internal/form"

// ParseDisjoint decomposes a step constraint into disjuncts that each
// freeze a set of variables, returning the frozen set per disjunct. It
// recognizes exactly the shapes form.DisjointSteps emits — disjunctions of
// UNCHANGED conjunctions and tuple-stutter equalities — and fails on
// anything else.
//
// This is the single shared reading of the paper's Disjoint hypothesis
// (§2.3): the vet pre-check uses it to audit interleaving coverage
// (SV020/SV021).
func ParseDisjoint(e form.Expr) ([]map[string]bool, bool) {
	var sets []map[string]bool
	for _, leaf := range OrLeaves(e) {
		s, ok := UnchangedSet(leaf)
		if !ok {
			return nil, false
		}
		sets = append(sets, s)
	}
	return sets, len(sets) > 0
}

// OrLeaves flattens nested disjunctions into their leaves.
func OrLeaves(e form.Expr) []form.Expr {
	if o, ok := e.(form.OrE); ok {
		var out []form.Expr
		for _, c := range o.Xs {
			out = append(out, OrLeaves(c)...)
		}
		return out
	}
	return []form.Expr{e}
}

// UnchangedSet parses an expression asserting that a set of variables is
// unchanged — v' = v, ⟨v1,…,vn⟩' = ⟨v1,…,vn⟩, or a conjunction of such —
// and returns that set.
func UnchangedSet(e form.Expr) (map[string]bool, bool) {
	switch x := e.(type) {
	case form.AndE:
		out := make(map[string]bool)
		for _, c := range x.Xs {
			s, ok := UnchangedSet(c)
			if !ok {
				return nil, false
			}
			for v := range s {
				out[v] = true
			}
		}
		return out, true
	case form.CmpE:
		if x.Op != form.OpEq || !stutterEq(x) {
			return nil, false
		}
		f := x.A
		if p, ok := x.A.(form.PrimeE); ok {
			f = p.X
		} else if p, ok := x.B.(form.PrimeE); ok {
			f = p.X
		}
		switch sub := f.(type) {
		case form.VarE:
			return map[string]bool{sub.Name: true}, true
		case form.TupleE:
			out := make(map[string]bool, len(sub.Xs))
			for _, c := range sub.Xs {
				v, ok := c.(form.VarE)
				if !ok {
					return nil, false
				}
				out[v.Name] = true
			}
			return out, true
		}
		return nil, false
	}
	return nil, false
}

// stutterEq reports whether the equality has the shape f' = f (either
// operand order) for some state function f.
func stutterEq(x form.CmpE) bool {
	if p, ok := x.A.(form.PrimeE); ok && p.X.String() == x.B.String() {
		return true
	}
	if p, ok := x.B.(form.PrimeE); ok && p.X.String() == x.A.String() {
		return true
	}
	return false
}
