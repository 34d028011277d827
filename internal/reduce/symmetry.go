package reduce

import (
	"fmt"
	"sort"
	"strings"

	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/value"
)

// Symmetry declares a data-value permutation group under which a system's
// behavior set is invariant: every permutation of Values, applied
// pointwise to the values of the scoped variables Vars (recursively inside
// tuples/sequences). This is the classic scalarset symmetry: in the queue
// specs the transmitted data values are interchangeable because no formula
// compares them against literals or orders them.
//
// Declarations are claims, not facts: Validate checks them against the
// system before any reduced exploration, and CheckValueInvariant checks
// individual property formulas. The canonicalizer then maps each state to
// a canonical representative of its group orbit.
type Symmetry struct {
	// Values is the interchangeable data-value orbit (at least 2 values
	// for the group to be nontrivial).
	Values []value.Value
	// Vars lists the variables whose values range over Values (directly or
	// inside tuple values).
	Vars []string
}

func (sym *Symmetry) nontrivial() bool {
	return sym != nil && len(sym.Values) >= 2 && len(sym.Vars) >= 1
}

// desc renders a nontrivial declaration canonically for cache keys.
func (sym *Symmetry) desc() string {
	var sb strings.Builder
	sb.WriteString("  sym-values=[")
	for i, v := range sym.Values {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(v.String())
	}
	sb.WriteString("] vars=[")
	sb.WriteString(strings.Join(sym.sortedVars(), ","))
	sb.WriteString("]\n")
	return sb.String()
}

func (sym *Symmetry) sortedVars() []string {
	out := append([]string(nil), sym.Vars...)
	sort.Strings(out)
	return out
}

func (sym *Symmetry) scope() map[string]bool {
	m := make(map[string]bool, len(sym.Vars))
	for _, v := range sym.Vars {
		m[v] = true
	}
	return m
}

// inValues reports whether v equals a member of the declared orbit.
func (sym *Symmetry) inValues(v value.Value) bool {
	for _, w := range sym.Values {
		if w.Equal(v) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Canonicalization

// Canonicalizer maps states to canonical representatives of their group
// orbits. Build one with Config.Canonicalizer; it is immutable and safe for
// concurrent use from exploration workers.
type Canonicalizer struct {
	sym  *Symmetry
	vars []string // sorted scoped vars, the deterministic scan order
	sab  *Sabotage
}

// Canonicalizer compiles the config's symmetry declaration into a reusable
// canonicalizer, or nil when symmetry reduction is inactive.
func (c *Config) Canonicalizer() *Canonicalizer {
	if !c.Active() {
		return nil
	}
	return &Canonicalizer{sym: c.Symmetry, vars: c.Symmetry.sortedVars(), sab: c.Sabotage}
}

// Canon returns the canonical representative of s's orbit.
//
// First-occurrence relabeling is already canonical: scanning the scoped
// variables in sorted order (recursing left-to-right through tuples), the
// j-th distinct orbit value encountered is renamed to Values[j]. Any two
// states in the same orbit produce the same relabeled state, and
// relabeling is idempotent.
func (cz *Canonicalizer) Canon(s *state.State) *state.State {
	if cz == nil {
		return s
	}
	// src/dst record the relabeling discovered so far; orbit sizes are tiny
	// (a handful of data values), so linear scans beat any map.
	var src, dst []value.Value
	collapse := cz.sab != nil && cz.sab.CollapseValues
	skipTuples := cz.sab != nil && cz.sab.SkipTupleValues
	var mapVal func(v value.Value) value.Value
	mapVal = func(v value.Value) value.Value {
		if v.Kind() == value.KindTuple {
			if skipTuples {
				return v
			}
			elems := v.Elems()
			changed := false
			for i := range elems {
				nv := mapVal(elems[i])
				if !nv.Equal(elems[i]) {
					changed = true
				}
				elems[i] = nv
			}
			if !changed {
				return v
			}
			return value.Tuple(elems...)
		}
		for i := range src {
			if src[i].Equal(v) {
				return dst[i]
			}
		}
		if cz.sym.inValues(v) {
			target := cz.sym.Values[len(src)]
			if collapse {
				target = cz.sym.Values[0]
			}
			src = append(src, v)
			dst = append(dst, target)
			return target
		}
		return v
	}
	var updates map[string]value.Value
	for _, name := range cz.vars {
		v, ok := s.Get(name)
		if !ok {
			continue
		}
		nv := mapVal(v)
		if !nv.Equal(v) {
			if updates == nil {
				updates = make(map[string]value.Value, len(cz.vars))
			}
			updates[name] = nv
		}
	}
	if updates == nil {
		return s
	}
	return s.WithAll(updates)
}

// ---------------------------------------------------------------------------
// Validation

// Validate checks the declaration against a system: components, step and
// initial constraints (as named expressions), and variable domains. An
// error means the group is not provably a symmetry of the system and
// reduction under it would be unsound.
func (sym *Symmetry) Validate(comps []*spec.Component, steps, inits []NamedExpr, domains map[string][]value.Value) error {
	if sym == nil || !sym.nontrivial() {
		return nil
	}
	if err := sym.validateShape(); err != nil {
		return err
	}
	if err := sym.validateValueDomains(domains); err != nil {
		return err
	}
	check := func(ctx string, e form.Expr) error {
		if e == nil {
			return nil
		}
		if err := sym.CheckValueInvariant(e); err != nil {
			return fmt.Errorf("%s: %w", ctx, err)
		}
		return nil
	}
	for _, c := range comps {
		if err := check(fmt.Sprintf("component %s Init", c.Name), c.Init); err != nil {
			return err
		}
		for _, a := range c.Actions {
			if a.Def == nil {
				return fmt.Errorf("component %s action %s: no declarative definition; value symmetry cannot be validated", c.Name, a.Name)
			}
			if err := check(fmt.Sprintf("component %s action %s", c.Name, a.Name), a.Def); err != nil {
				return err
			}
		}
		for _, f := range c.Fairness {
			if err := check(fmt.Sprintf("component %s fairness action", c.Name), f.Action); err != nil {
				return err
			}
			if f.Sub != nil {
				if err := check(fmt.Sprintf("component %s fairness subscript", c.Name), f.Sub); err != nil {
					return err
				}
			}
		}
	}
	for _, sc := range steps {
		if err := check("step constraint "+sc.Name, sc.E); err != nil {
			return err
		}
	}
	for _, ic := range inits {
		if err := check("init constraint "+ic.Name, ic.E); err != nil {
			return err
		}
	}
	return nil
}

// NamedExpr pairs an expression with a diagnostic name; ts converts its
// step constraints into this form so reduce need not depend on ts.
type NamedExpr struct {
	Name string
	E    form.Expr
}

func (sym *Symmetry) validateShape() error {
	for i, v := range sym.Values {
		for _, w := range sym.Values[i+1:] {
			if v.Equal(w) {
				return fmt.Errorf("symmetry: duplicate value %s in Values", v)
			}
		}
		if v.Kind() == value.KindTuple {
			return fmt.Errorf("symmetry: Values must be atoms, got tuple %s", v)
		}
	}
	for i, v := range sym.Vars {
		for _, w := range sym.Vars[i+1:] {
			if v == w {
				return fmt.Errorf("symmetry: duplicate variable %q in Vars", v)
			}
		}
	}
	return nil
}

// validateValueDomains checks that every scoped variable has a declared
// domain closed under permutations of Values: applying any transposition of
// two orbit values to a domain element (recursively inside tuples) yields
// another domain element. Closure under adjacent transpositions generates
// closure under the full symmetric group.
func (sym *Symmetry) validateValueDomains(domains map[string][]value.Value) error {
	for _, name := range sym.sortedVars() {
		dom := domains[name]
		if len(dom) == 0 {
			return fmt.Errorf("symmetry: scoped variable %q has no declared domain", name)
		}
		for i := 0; i+1 < len(sym.Values); i++ {
			a, b := sym.Values[i], sym.Values[i+1]
			for _, v := range dom {
				sw := swapAtoms(v, a, b)
				if !containsValue(dom, sw) {
					return fmt.Errorf("symmetry: domain of %q is not closed under value permutations: %s maps to %s, which is outside the domain", name, v, sw)
				}
			}
		}
	}
	return nil
}

// swapAtoms applies the transposition a <-> b to v, recursing into tuples.
func swapAtoms(v, a, b value.Value) value.Value {
	if v.Kind() == value.KindTuple {
		elems := v.Elems()
		for i := range elems {
			elems[i] = swapAtoms(elems[i], a, b)
		}
		return value.Tuple(elems...)
	}
	if v.Equal(a) {
		return b
	}
	if v.Equal(b) {
		return a
	}
	return v
}

func containsValue(dom []value.Value, v value.Value) bool {
	for _, w := range dom {
		if w.Equal(v) {
			return true
		}
	}
	return false
}

// CheckValueInvariant checks structurally that e's truth value is invariant
// under permutations of Values applied to the scoped variables. The rules
// are conservative (they may reject an invariant formula, never accept a
// non-invariant one):
//
//   - Ordering comparisons (<, <=, >, >=) must not touch scoped values:
//     permutations do not preserve order. Len(seq) of a scoped sequence is
//     permutation-invariant and therefore does NOT count as touching.
//   - Arithmetic must not touch scoped values (1 - x is not invariant).
//   - Equality/inequality may relate two scope-touching sides (π applies to
//     both), but not a scope-touching side with a literal from Values or
//     with a non-scoped variable: val' = 1 and val' = sig pin orbit values.
//   - A quantifier whose domain overlaps Values must range over a
//     permutation-closed domain, and its bound variable becomes scoped in
//     the body (∃ v ∈ Values: val' = v is invariant; ∃ v ∈ {0}: val' = v
//     is not).
//
// All formulas of the queue/handshake specs pass these rules; formulas that
// pin, order, or do arithmetic on data values are rejected.
func (sym *Symmetry) CheckValueInvariant(e form.Expr) error {
	if !sym.nontrivial() {
		return nil
	}
	return sym.checkValue(e, sym.scope())
}

func (sym *Symmetry) checkValue(e form.Expr, scope map[string]bool) error {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case form.VarE, form.ConstE:
		return nil
	case form.PrimeE:
		return sym.checkValue(x.X, scope)
	case form.AndE:
		for _, c := range x.Xs {
			if err := sym.checkValue(c, scope); err != nil {
				return err
			}
		}
		return nil
	case form.OrE:
		for _, c := range x.Xs {
			if err := sym.checkValue(c, scope); err != nil {
				return err
			}
		}
		return nil
	case form.NotE:
		return sym.checkValue(x.X, scope)
	case form.ImpliesE:
		if err := sym.checkValue(x.A, scope); err != nil {
			return err
		}
		return sym.checkValue(x.B, scope)
	case form.EquivE:
		if err := sym.checkValue(x.A, scope); err != nil {
			return err
		}
		return sym.checkValue(x.B, scope)
	case form.CmpE:
		ta := sym.touches(x.A, scope)
		tb := sym.touches(x.B, scope)
		switch x.Op {
		case form.OpLt, form.OpLe, form.OpGt, form.OpGe:
			if ta || tb {
				return fmt.Errorf("ordering comparison %s touches symmetric values; permutations do not preserve order", e)
			}
		case form.OpEq, form.OpNe:
			if ta || tb {
				if sym.constMentionsValues(x.A) || sym.constMentionsValues(x.B) {
					return fmt.Errorf("comparison %s pins a symmetric value against a literal", e)
				}
				if ta != tb {
					// One side is in the orbit's scope, the other is not: the
					// unscoped side must be constant under the permutation,
					// i.e. mention no variables outside Len(·) subtrees.
					other := x.B
					if tb {
						other = x.A
					}
					if mentionsBareVar(other) {
						return fmt.Errorf("comparison %s relates a symmetric value to an unscoped variable", e)
					}
				}
			}
		}
		if err := sym.checkValue(x.A, scope); err != nil {
			return err
		}
		return sym.checkValue(x.B, scope)
	case form.ArithE:
		if sym.touches(x.A, scope) || sym.touches(x.B, scope) {
			return fmt.Errorf("arithmetic %s touches symmetric values; permutations do not commute with arithmetic", e)
		}
		if err := sym.checkValue(x.A, scope); err != nil {
			return err
		}
		return sym.checkValue(x.B, scope)
	case form.IfE:
		if err := sym.checkValue(x.C, scope); err != nil {
			return err
		}
		if err := sym.checkValue(x.T, scope); err != nil {
			return err
		}
		return sym.checkValue(x.E, scope)
	case form.TupleE:
		for _, c := range x.Xs {
			if err := sym.checkValue(c, scope); err != nil {
				return err
			}
		}
		return nil
	case form.SeqUnE:
		return sym.checkValue(x.X, scope)
	case form.ConcatE:
		if err := sym.checkValue(x.A, scope); err != nil {
			return err
		}
		return sym.checkValue(x.B, scope)
	case form.QuantE:
		inner := scope
		if domainOverlaps(x.Domain, sym.Values) {
			if !sym.domainClosed(x.Domain) {
				return fmt.Errorf("quantifier over %q ranges over a domain not closed under value permutations", x.Name)
			}
			inner = make(map[string]bool, len(scope)+1)
			for k := range scope {
				inner[k] = true
			}
			inner[x.Name] = true
		}
		return sym.checkValue(x.Body, inner)
	default:
		return fmt.Errorf("unsupported expression %T in value-symmetry check", e)
	}
}

// touches reports whether e's value can depend on a permutation of the
// scoped variables' data values. Len(·) is permutation-invariant, so a
// Len subtree never touches regardless of its contents.
func (sym *Symmetry) touches(e form.Expr, scope map[string]bool) bool {
	switch x := e.(type) {
	case form.VarE:
		return scope[x.Name]
	case form.ConstE:
		return false
	case form.PrimeE:
		return sym.touches(x.X, scope)
	case form.SeqUnE:
		if x.Op == form.OpLen {
			return false
		}
		return sym.touches(x.X, scope)
	case form.AndE:
		for _, c := range x.Xs {
			if sym.touches(c, scope) {
				return true
			}
		}
		return false
	case form.OrE:
		for _, c := range x.Xs {
			if sym.touches(c, scope) {
				return true
			}
		}
		return false
	case form.NotE:
		return sym.touches(x.X, scope)
	case form.ImpliesE:
		return sym.touches(x.A, scope) || sym.touches(x.B, scope)
	case form.EquivE:
		return sym.touches(x.A, scope) || sym.touches(x.B, scope)
	case form.CmpE:
		return sym.touches(x.A, scope) || sym.touches(x.B, scope)
	case form.ArithE:
		return sym.touches(x.A, scope) || sym.touches(x.B, scope)
	case form.IfE:
		return sym.touches(x.C, scope) || sym.touches(x.T, scope) || sym.touches(x.E, scope)
	case form.TupleE:
		for _, c := range x.Xs {
			if sym.touches(c, scope) {
				return true
			}
		}
		return false
	case form.ConcatE:
		return sym.touches(x.A, scope) || sym.touches(x.B, scope)
	case form.QuantE:
		inner := scope
		if domainOverlaps(x.Domain, sym.Values) {
			inner = make(map[string]bool, len(scope)+1)
			for k := range scope {
				inner[k] = true
			}
			inner[x.Name] = true
		}
		return sym.touches(x.Body, inner)
	default:
		return true // unknown node: assume dependence (conservative)
	}
}

// constMentionsValues reports whether e contains a constant whose value
// (recursively) includes an atom from the orbit.
func (sym *Symmetry) constMentionsValues(e form.Expr) bool {
	found := false
	form.Walk(e, func(n form.Expr) bool {
		if found {
			return false
		}
		if c, ok := n.(form.ConstE); ok && sym.valueHasOrbitAtom(c.V) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (sym *Symmetry) valueHasOrbitAtom(v value.Value) bool {
	if v.Kind() == value.KindTuple {
		for i := 0; i < v.Len(); i++ {
			el, _ := v.At(i)
			if sym.valueHasOrbitAtom(el) {
				return true
			}
		}
		return false
	}
	return sym.inValues(v)
}

// mentionsBareVar reports whether e contains a variable occurrence outside
// Len(·) subtrees (whose value could pin a permuted data value).
func mentionsBareVar(e form.Expr) bool {
	switch x := e.(type) {
	case form.VarE:
		return true
	case form.ConstE:
		return false
	case form.PrimeE:
		return mentionsBareVar(x.X)
	case form.SeqUnE:
		if x.Op == form.OpLen {
			return false
		}
		return mentionsBareVar(x.X)
	case form.AndE:
		for _, c := range x.Xs {
			if mentionsBareVar(c) {
				return true
			}
		}
		return false
	case form.OrE:
		for _, c := range x.Xs {
			if mentionsBareVar(c) {
				return true
			}
		}
		return false
	case form.NotE:
		return mentionsBareVar(x.X)
	case form.ImpliesE:
		return mentionsBareVar(x.A) || mentionsBareVar(x.B)
	case form.EquivE:
		return mentionsBareVar(x.A) || mentionsBareVar(x.B)
	case form.CmpE:
		return mentionsBareVar(x.A) || mentionsBareVar(x.B)
	case form.ArithE:
		return mentionsBareVar(x.A) || mentionsBareVar(x.B)
	case form.IfE:
		return mentionsBareVar(x.C) || mentionsBareVar(x.T) || mentionsBareVar(x.E)
	case form.TupleE:
		for _, c := range x.Xs {
			if mentionsBareVar(c) {
				return true
			}
		}
		return false
	case form.ConcatE:
		return mentionsBareVar(x.A) || mentionsBareVar(x.B)
	case form.QuantE:
		return mentionsBareVar(x.Body)
	default:
		return true
	}
}

func domainOverlaps(dom, values []value.Value) bool {
	for _, d := range dom {
		for _, v := range values {
			if d.Equal(v) {
				return true
			}
		}
	}
	return false
}

// domainClosed reports whether dom is closed under permutations of Values.
func (sym *Symmetry) domainClosed(dom []value.Value) bool {
	for i := 0; i+1 < len(sym.Values); i++ {
		a, b := sym.Values[i], sym.Values[i+1]
		for _, v := range dom {
			if !containsValue(dom, swapAtoms(v, a, b)) {
				return false
			}
		}
	}
	return true
}
