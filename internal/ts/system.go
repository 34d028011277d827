// Package ts builds finite transition systems from conjunctions of
// component specifications, following §5 of Abadi & Lamport, "Open Systems
// in TLA": the conjunction of the (canonical-form) specifications of
// components that together form a complete system is itself equivalent to a
// canonical-form complete-system specification, whose behaviors an
// explicit-state graph represents exactly.
//
// A step of the conjunction satisfies every component's □[N_i]_⟨m_i,x_i⟩,
// so it may combine real actions of several components simultaneously;
// interleaving is not assumed but may be imposed with Disjoint step
// constraints (§2.3), exactly as the paper does for formula (4) in §A.5.
package ts

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/reduce"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/value"
)

// StepConstraint is an extra conjunct on every step of the system, such as
// one pair of a Disjoint assumption. The action must already permit
// whatever stuttering it intends to permit (use form.Square).
type StepConstraint struct {
	Name   string
	Action form.Expr
}

// System is a finite-state complete system: the conjunction of component
// specifications plus optional step and initial constraints, over declared
// finite variable domains.
type System struct {
	Name            string
	Components      []*spec.Component
	Constraints     []StepConstraint
	InitConstraints []form.Expr
	// Domains assigns a finite domain to every variable.
	Domains map[string][]value.Value
	// MaxStates bounds graph construction (default 500000).
	MaxStates int
	// Workers is the goroutine count for parallel frontier exploration
	// (0 = GOMAXPROCS). The built graph is identical at any setting.
	Workers int
	// Cache, when non-nil, is consulted before exploring and persisted to
	// after a complete build (see GraphCache). Entries are keyed by
	// CanonicalDesc, so Name/Workers/MaxStates do not affect cache identity.
	Cache GraphCache
	// Resume, when true (and Cache is set), restores a checkpoint saved by
	// an earlier budget-exhausted run and continues the exploration from its
	// last completed level instead of restarting.
	Resume bool
	// Reduce, when non-nil with enabled options, requests state-space
	// reduction by symmetry canonicalization (see internal/reduce). An
	// invalid symmetry declaration is a
	// BuildWith error — at this level the declaration is the user's claim
	// and a wrong claim must fail loudly, not silently explore less.
	// Liveness checks refuse reduced graphs (see check.FindFairLasso);
	// safety checks must iterate real steps via ForEachSuccStep.
	Reduce *reduce.Config
}

// reduceSteps converts the step constraints to the reduce package's named
// expressions for symmetry validation.
func (sys *System) reduceSteps() []reduce.NamedExpr {
	out := make([]reduce.NamedExpr, 0, len(sys.Constraints))
	for _, sc := range sys.Constraints {
		out = append(out, reduce.NamedExpr{Name: sc.Name, E: sc.Action})
	}
	return out
}

// reduceInits converts the init constraints to named expressions.
func (sys *System) reduceInits() []reduce.NamedExpr {
	out := make([]reduce.NamedExpr, 0, len(sys.InitConstraints))
	for i, ic := range sys.InitConstraints {
		out = append(out, reduce.NamedExpr{Name: fmt.Sprintf("init-%d", i), E: ic})
	}
	return out
}

// Vars returns the sorted union of all variables of the system.
func (sys *System) Vars() []string {
	set := make(map[string]bool)
	for _, c := range sys.Components {
		for _, v := range c.Vars() {
			set[v] = true
		}
	}
	for _, sc := range sys.Constraints {
		for _, v := range form.AllVars(sc.Action) {
			set[v] = true
		}
	}
	for _, ic := range sys.InitConstraints {
		for _, v := range form.AllVars(ic) {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// FreeVars returns the variables owned by no component: under conjunction
// semantics they may change arbitrarily (within their domains) on any step.
func (sys *System) FreeVars() []string {
	owned := make(map[string]bool)
	for _, c := range sys.Components {
		for _, v := range c.Owned() {
			owned[v] = true
		}
	}
	var out []string
	for _, v := range sys.Vars() {
		if !owned[v] {
			out = append(out, v)
		}
	}
	return out
}

// Ctx returns an evaluation context over the system's domains.
func (sys *System) Ctx() *form.Ctx { return form.NewCtx(sys.Domains) }

// Validate checks that the system is well-formed: components validate
// individually, owned variable sets are pairwise disjoint, and every
// variable has a nonempty domain.
func (sys *System) Validate() error {
	ownedBy := make(map[string]string)
	for _, c := range sys.Components {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("system %s: %w", sys.Name, err)
		}
		for _, v := range c.Owned() {
			if prev, dup := ownedBy[v]; dup {
				return fmt.Errorf("system %s: variable %q owned by both %s and %s", sys.Name, v, prev, c.Name)
			}
			ownedBy[v] = c.Name
		}
	}
	for _, v := range sys.Vars() {
		if len(sys.Domains[v]) == 0 {
			return fmt.Errorf("system %s: variable %q has no domain", sys.Name, v)
		}
	}
	return nil
}

func (sys *System) maxStates() int {
	if sys.MaxStates <= 0 {
		return 500000
	}
	return sys.MaxStates
}

// compiledComponent caches per-component data used during successor
// generation.
type compiledComponent struct {
	comp    *spec.Component
	owned   []string
	actions []compiledAction
}

type compiledAction struct {
	name string
	def  form.Expr
	pred form.CompiledPred // def compiled against the system layout
	exec spec.ExecFunc
	// freeDep records whether def primes a free variable; when it does not,
	// its verdict on a candidate step is the same under every free
	// assignment and is cached per choice combination (see successors).
	freeDep bool
}

// compiledConstraint is a step constraint compiled against the system
// layout.
type compiledConstraint struct {
	name   string
	action form.Expr
	pred   form.CompiledPred
}

// compiledSystem caches everything successor generation needs: per-component
// actions with executable update generators, the step constraints split by
// free-dependence, and the free variables with their domains. It is
// immutable after compile, apart from its scratch pool, and shared across
// exploration workers.
type compiledSystem struct {
	comps []compiledComponent
	// consIndep prime no free variable (one verdict per choice combination);
	// consDep are re-checked under every free assignment.
	consIndep, consDep []*compiledConstraint
	free               []string
	freeDoms           [][]value.Value
	// scratch recycles successors' per-expansion working memory
	// (*succScratch) across expansions and workers.
	scratch sync.Pool
}

func (sys *System) compile() (*compiledSystem, error) {
	// All states of a system bind exactly sys.Vars(); compiling every
	// declarative definition against that layout once moves variable
	// resolution and stutter-equality checks out of the per-candidate loop.
	layout := sys.Vars()
	free := sys.FreeVars()
	freeSet := make(map[string]bool, len(free))
	for _, v := range free {
		freeSet[v] = true
	}
	primesFree := func(e form.Expr) bool {
		for _, v := range form.PrimedVars(e) {
			if freeSet[v] {
				return true
			}
		}
		return false
	}
	cs := &compiledSystem{comps: make([]compiledComponent, len(sys.Components)), free: free}
	for _, v := range free {
		cs.freeDoms = append(cs.freeDoms, sys.Domains[v])
	}
	for i, c := range sys.Components {
		cc := compiledComponent{comp: c, owned: c.Owned()}
		for _, a := range c.Actions {
			ca := compiledAction{name: a.Name, def: a.Def, exec: a.Exec, freeDep: primesFree(a.Def)}
			if a.Def != nil {
				ca.pred = form.CompilePred(a.Def, layout)
			}
			if ca.exec == nil {
				n, err := updateSpaceSize(cc.owned, sys.Domains)
				if err != nil {
					return nil, fmt.Errorf("component %s action %s: %w", c.Name, a.Name, err)
				}
				if n > 1_000_000 {
					return nil, fmt.Errorf("component %s action %s: no Exec and %d brute-force updates; supply an Exec generator", c.Name, a.Name, n)
				}
				ca.exec = spec.BruteExec(cc.owned, sys.Domains, a.Def)
			}
			cc.actions = append(cc.actions, ca)
		}
		cs.comps[i] = cc
	}
	for _, sc := range sys.Constraints {
		c := &compiledConstraint{name: sc.Name, action: sc.Action, pred: form.CompilePred(sc.Action, layout)}
		if primesFree(sc.Action) {
			cs.consDep = append(cs.consDep, c)
		} else {
			cs.consIndep = append(cs.consIndep, c)
		}
	}
	return cs, nil
}

func updateSpaceSize(vars []string, domains map[string][]value.Value) (int, error) {
	n := 1
	for _, v := range vars {
		d := domains[v]
		if len(d) == 0 {
			return 0, fmt.Errorf("variable %q has no domain", v)
		}
		n *= len(d)
		if n > 1<<30 {
			return n, nil
		}
	}
	return n, nil
}

// InitialStates enumerates the states over the full variable set whose
// assignments satisfy every component's Init and every initial constraint.
func (sys *System) InitialStates() ([]*state.State, error) {
	return sys.initialStates(engine.NoLimit())
}

// initialStates is InitialStates under a resource meter: the enumeration is
// a cooperative cancellation point, and a statically oversized instance
// fails informatively with an *engine.BudgetError instead of grinding.
func (sys *System) initialStates(m *engine.Meter) ([]*state.State, error) {
	vars := sys.Vars()
	total, err := updateSpaceSize(vars, sys.Domains)
	if err != nil {
		return nil, err
	}
	if total > 10_000_000 {
		return nil, &engine.BudgetError{
			Reason: fmt.Sprintf("system %s: initial-state space %d exceeds the enumeration limit; shrink the instance or its domains", sys.Name, total),
			Stats:  m.Stats(),
		}
	}
	var preds []form.Expr
	for _, c := range sys.Components {
		if c.Init != nil {
			preds = append(preds, c.Init)
		}
	}
	preds = append(preds, sys.InitConstraints...)
	// The enumeration can visit millions of assignments; compiled predicates
	// keep the per-assignment cost to positional reads.
	compiled := make([]form.CompiledPred, len(preds))
	for i, p := range preds {
		compiled[i] = form.CompilePred(p, vars)
	}
	// Odometer over layout positions into one scratch state: vars is
	// sorted, so position i is vars[i], and the last variable varies
	// fastest (value.ForEachAssignment's order, which fixes Inits order).
	// Only assignments that satisfy Init are cloned out of the scratch.
	doms := make([][]value.Value, len(vars))
	digits := make([]int, len(vars))
	asg := make([]state.PosUpdate, len(vars))
	first := make(map[string]value.Value, len(vars))
	for i, v := range vars {
		doms[i] = sys.Domains[v]
		asg[i] = state.PosUpdate{Pos: i, Val: doms[i][0]}
		first[v] = doms[i][0]
	}
	tmpl := state.New(first)
	scratch := tmpl.Clone()
	var out []*state.State
	for {
		if err := m.Tick(); err != nil {
			return nil, err
		}
		tmpl.OverwriteInto(scratch, asg)
		ok := true
		for i, p := range compiled {
			holds, err := p(state.Step{From: scratch})
			if err != nil {
				return nil, fmt.Errorf("system %s: evaluating Init %s on %s: %w", sys.Name, preds[i], scratch, err)
			}
			if !holds {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, scratch.Clone())
		}
		if !nextAssignment(digits, doms) {
			return out, nil
		}
		for i := range asg {
			asg[i].Val = doms[i][digits[i]]
		}
	}
}

// nextAssignment advances a mixed-radix counter over doms with the LAST
// digit fastest — value.ForEachAssignment's enumeration order, which the
// state numbering of every graph depends on. It reports false when the
// counter wraps (every assignment visited).
func nextAssignment(digits []int, doms [][]value.Value) bool {
	for i := len(digits) - 1; i >= 0; i-- {
		digits[i]++
		if digits[i] < len(doms[i]) {
			return true
		}
		digits[i] = 0
	}
	return false
}

// choice is one component's contribution to a joint step with its update
// resolved to positional form: either a stutter (action == nil, no updates)
// or a named action reassigning its owned variables. Positional updates let
// each candidate successor be built in scratch with a single slice copy
// (OverwriteInto) instead of one map-merge-sort per component.
type choice struct {
	action *compiledAction
	ups    []state.PosUpdate
}

// posUpdates resolves an action's update map against s's binding positions.
// Every updated variable must already be bound: successor generation works
// over the full variable set, so an unbound name means the action writes a
// variable outside the system.
func (sys *System) posUpdates(ca *compiledAction, s *state.State, up map[string]value.Value) ([]state.PosUpdate, error) {
	ups := make([]state.PosUpdate, 0, len(up))
	for n, v := range up {
		p, ok := s.PosOf(n)
		if !ok {
			return nil, fmt.Errorf("system %s: action %s updates variable %q not bound in state %s", sys.Name, ca.name, n, s)
		}
		ups = append(ups, state.PosUpdate{Pos: p, Val: v})
	}
	return ups, nil
}

// Successors computes all states t such that ⟨s, t⟩ satisfies every
// component's [N_i]_⟨m_i,x_i⟩, every step constraint, and changes free
// variables arbitrarily. The result always includes s itself (stuttering).
func (sys *System) Successors(s *state.State) ([]*state.State, error) {
	cs, err := sys.compile()
	if err != nil {
		return nil, err
	}
	return sys.successors(cs, s, nil)
}

// Combo-cache verdicts for the free-independent part of a step's validity.
const (
	comboUnknown int8 = iota
	comboPass
	comboFail
)

// maxComboCache bounds the per-state verdict cache; a system with more
// choice combinations than this per state falls back to uncached checking.
const maxComboCache = 1 << 20

// successors enumerates every candidate step from s and verifies each
// against the declarative definitions: each chosen action's Def and every
// step constraint, evaluated on the merged pair. Verifying Def on the merged
// pair is what rejects cross-component conflicts (e.g. an action asserting
// z' = z merged with another component's change to z).
//
// Candidates are the cross product of free-variable assignments and
// per-component choice combinations. An expression that primes no free
// variable has the same verdict for a given choice combination under every
// free assignment (unprimed variables read s, which is fixed), so those
// verdicts are computed once per combination and cached.
//
// Every candidate is built in one goroutine-local scratch state. An
// accepted candidate that known (a read-only probe of the committed states,
// nil for none) already holds is emitted as the committed pointer; only the
// rest are cloned, so rejected, duplicate and already-explored candidates
// cost no allocation.
func (sys *System) successors(cs *compiledSystem, s *state.State, known func(*state.State) *state.State) ([]*state.State, error) {
	compiled := cs.comps
	sc, _ := cs.scratch.Get().(*succScratch)
	if sc == nil {
		sc = &succScratch{
			perComp: make([][]choice, len(compiled)),
			strides: make([]int, len(compiled)),
			idx:     make([]int, len(compiled)),
			freeIdx: make([]int, len(cs.free)),
			freePos: make([]state.PosUpdate, len(cs.free)),
			groups:  make([][]state.PosUpdate, len(compiled)+1),
			chosen:  make([]*choice, 0, len(compiled)),
			cand:    s.Clone(),
		}
	}
	defer cs.scratch.Put(sc)

	// Gather each component's choices in state s, resolving update maps to
	// positional form once so each candidate below costs one slice copy.
	perComp := sc.perComp
	comboCount := 1
	for i, cc := range compiled {
		chs := append(perComp[i][:0], choice{action: nil}) // stutter
		for ai := range cc.actions {
			ca := &cc.actions[ai]
			for _, up := range ca.exec(s) {
				ups, err := sys.posUpdates(ca, s, up)
				if err != nil {
					return nil, err
				}
				chs = append(chs, choice{action: ca, ups: ups})
			}
		}
		perComp[i] = chs
		if comboCount <= maxComboCache {
			comboCount *= len(chs)
		}
	}
	var comboCache []int8
	strides := sc.strides
	if comboCount <= maxComboCache {
		if cap(sc.comboCache) < comboCount {
			sc.comboCache = make([]int8, comboCount)
		}
		comboCache = sc.comboCache[:comboCount]
		clear(comboCache)
		stride := 1
		for ci := range compiled {
			strides[ci] = stride
			stride *= len(perComp[ci])
		}
	}

	// Resolve free-variable positions once; most systems have none, in
	// which case the outer loop body runs exactly once.
	free := cs.free
	freePos, freeIdx := sc.freePos, sc.freeIdx
	for i, v := range free {
		p, ok := s.PosOf(v)
		if !ok {
			return nil, fmt.Errorf("system %s: free variable %q not bound in state %s", sys.Name, v, s)
		}
		freePos[i] = state.PosUpdate{Pos: p}
		freeIdx[i] = 0
	}

	evalOn := func(kind, name string, pred form.CompiledPred, e form.Expr, st state.Step) (bool, error) {
		var ok bool
		var err error
		if pred != nil {
			ok, err = pred(st)
		} else {
			ok, err = form.EvalBool(e, st, nil)
		}
		if err != nil {
			return false, fmt.Errorf("system %s: %s %s on %s: %w", sys.Name, kind, name, st, err)
		}
		return ok, nil
	}

	out := sc.out[:0]
	seen := &sc.seen
	seen.reset()
	groups, idx, chosen, scratch := sc.groups, sc.idx, sc.chosen, sc.cand

	for {
		for i := range free {
			freePos[i].Val = cs.freeDoms[i][freeIdx[i]]
		}
		groups[0] = freePos
		// Enumerate per-component choice combinations under this free
		// assignment.
		for i := range idx {
			idx[i] = 0
		}
		for {
			cv, lin := comboUnknown, 0
			if comboCache != nil {
				for ci := range idx {
					lin += idx[ci] * strides[ci]
				}
				cv = comboCache[lin]
				if cv == comboFail {
					// Known invalid under every free assignment: skip
					// without even building the candidate.
					if !advance(idx, perComp) {
						break
					}
					continue
				}
			}
			chosen = chosen[:0]
			for ci := range compiled {
				ch := &perComp[ci][idx[ci]]
				groups[ci+1] = ch.ups
				if ch.action != nil {
					chosen = append(chosen, ch)
				}
			}
			s.OverwriteInto(scratch, groups...)
			if fp := scratch.Fingerprint(); !seen.has(out, scratch, fp) {
				st := state.Step{From: s, To: scratch}
				valid := true
				if cv == comboUnknown {
					// Free-independent part: chosen defs and constraints
					// that prime no free variable.
					for _, ch := range chosen {
						if ch.action.freeDep {
							continue
						}
						ok, err := evalOn("action", ch.action.name, ch.action.pred, ch.action.def, st)
						if err != nil {
							return nil, err
						}
						if !ok {
							valid = false
							break
						}
					}
					if valid {
						for _, c := range cs.consIndep {
							ok, err := evalOn("constraint", c.name, c.pred, c.action, st)
							if err != nil {
								return nil, err
							}
							if !ok {
								valid = false
								break
							}
						}
					}
					if comboCache != nil {
						if valid {
							comboCache[lin] = comboPass
						} else {
							comboCache[lin] = comboFail
						}
					}
				}
				if valid {
					// Free-dependent part, re-checked per free assignment.
					for _, ch := range chosen {
						if !ch.action.freeDep {
							continue
						}
						ok, err := evalOn("action", ch.action.name, ch.action.pred, ch.action.def, st)
						if err != nil {
							return nil, err
						}
						if !ok {
							valid = false
							break
						}
					}
					if valid {
						for _, c := range cs.consDep {
							ok, err := evalOn("constraint", c.name, c.pred, c.action, st)
							if err != nil {
								return nil, err
							}
							if !ok {
								valid = false
								break
							}
						}
					}
				}
				if valid {
					var t *state.State
					if known != nil {
						t = known(scratch)
					}
					if t == nil {
						t = scratch.Clone()
					}
					seen.add(fp)
					out = append(out, t)
				}
			}
			if !advance(idx, perComp) {
				break
			}
		}
		if !nextAssignment(freeIdx, cs.freeDoms) {
			break
		}
	}
	// The row is built in the pooled scratch and returned as one exact-size
	// copy; the scratch drops its references so the pool retains no state.
	row := slices.Clone(out)
	clear(out)
	sc.out = out
	return row, nil
}

// succScratch is the working memory of one successors call, recycled
// through compiledSystem.scratch so that steady-state expansion allocates
// only the returned row, the update lists of enabled actions and the
// states it clones. Every field is reset by the call that takes it.
type succScratch struct {
	perComp    [][]choice // per component: stutter plus enabled updates
	comboCache []int8     // verdicts by linearized choice combination
	strides    []int      // linearization strides of perComp
	idx        []int      // the choice-combination counter
	freeIdx    []int      // the free-assignment counter
	freePos    []state.PosUpdate
	groups     [][]state.PosUpdate
	chosen     []*choice    // at most one action per component
	cand       *state.State // every candidate is built here
	out        []*state.State
	seen       rowSet
}

// rowSetLinear is the row length up to which rowSet scans its fingerprints
// linearly; longer rows (large free domains) switch to a hash table so a
// row's dedup stays linear overall.
const rowSetLinear = 32

// rowSet deduplicates the successor row of one expansion: a fingerprint
// slice parallel to the row, with structural equality confirming every
// fingerprint match, so a 64-bit collision never drops a successor.
type rowSet struct {
	fps []uint64
	// slots, once the row outgrows rowSetLinear, is an open-addressing
	// table of row positions plus one (0 = empty), at most half full. One
	// slice instead of a map keeps the switch to a single allocation.
	slots []int32
}

func (r *rowSet) reset() {
	r.fps = r.fps[:0]
	r.slots = r.slots[:0]
}

// has reports whether row (the states added so far, parallel to fps)
// holds a state equal to s, whose fingerprint is fp.
func (r *rowSet) has(row []*state.State, s *state.State, fp uint64) bool {
	if len(r.slots) == 0 {
		for k, f := range r.fps {
			if f == fp && row[k].Equal(s) {
				return true
			}
		}
		return false
	}
	mask := uint64(len(r.slots) - 1)
	for i := fp & mask; r.slots[i] != 0; i = (i + 1) & mask {
		if k := r.slots[i] - 1; r.fps[k] == fp && row[k].Equal(s) {
			return true
		}
	}
	return false
}

// add records the fingerprint of the state just appended to the row.
func (r *rowSet) add(fp uint64) {
	r.fps = append(r.fps, fp)
	switch {
	case len(r.slots) == 0:
		if len(r.fps) > rowSetLinear {
			r.rehash(4 * rowSetLinear)
		}
	case 2*len(r.fps) > len(r.slots):
		r.rehash(2 * len(r.slots))
	default:
		r.insert(len(r.fps) - 1)
	}
}

// rehash rebuilds the table with n slots (a power of two).
func (r *rowSet) rehash(n int) {
	if cap(r.slots) >= n {
		r.slots = r.slots[:n]
		clear(r.slots)
	} else {
		r.slots = make([]int32, n)
	}
	for k := range r.fps {
		r.insert(k)
	}
}

func (r *rowSet) insert(k int) {
	mask := uint64(len(r.slots) - 1)
	i := r.fps[k] & mask
	for r.slots[i] != 0 {
		i = (i + 1) & mask
	}
	r.slots[i] = int32(k + 1)
}

// advance increments the per-component mixed-radix counter; it returns
// false when the counter wraps (all combinations exhausted).
func advance(idx []int, perComp [][]choice) bool {
	ci := 0
	for ci < len(idx) {
		idx[ci]++
		if idx[ci] < len(perComp[ci]) {
			return true
		}
		idx[ci] = 0
		ci++
	}
	return false
}
