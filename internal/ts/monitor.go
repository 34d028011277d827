package ts

import (
	"fmt"
	"strings"
	"sync"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/obs"
	"opentla/internal/state"
	"opentla/internal/value"
)

// Monitor is a (possibly nondeterministic) safety automaton run in product
// with a state graph. Its current value is recorded in the product states
// under Var, so ordinary state predicates can inspect it.
//
// Monitors express history-dependent constraints such as the paper's
// C(E) +v operator (§4.1): "E held for some prefix, after which v froze".
type Monitor struct {
	Var string
	// Domain lists the monitor's possible values (used for the product
	// context's domains).
	Domain []value.Value
	// Desc is a canonical description of the monitor's semantics, used to
	// content-address monitor products in the graph cache. Constructors
	// (SafetyMonitor, PlusMonitor) fill it from their defining formulas; a
	// hand-rolled monitor may leave it empty, which disables caching for any
	// product it participates in (opaque callbacks cannot be fingerprinted).
	Desc string
	// Init returns the allowed starting values in an initial state
	// (empty = state disallowed).
	Init func(s *state.State) ([]value.Value, error)
	// Step returns the allowed next values given the base step and the
	// current value (empty = edge disallowed for this value).
	// The slices Init and Step return are read-only to Product, so a
	// monitor may return shared ones.
	Step func(st state.Step, cur value.Value) ([]value.Value, error)
}

// Shared monitor results for the Boolean monitors; Product never writes
// into them, so one slice serves every call.
var (
	onlyTrue    = []value.Value{value.True}
	onlyFalse   = []value.Value{value.False}
	trueOrFalse = []value.Value{value.True, value.False}
)

// Product runs the monitors in lockstep with the graph and returns the
// product graph. Product states extend base states with the monitor
// variables; edges exist where the base edge exists and every monitor
// permits it. The product context's domains include the monitor variables.
//
// The product is explored by the same parallel frontier engine as BuildWith
// (worker count g.Sys.Workers, deterministic numbering at any setting) and
// inherits the base graph's resource meter: product states and edges draw
// from the same budget as the base exploration, and exhaustion aborts with
// an *engine.BudgetError. Panics inside monitor callbacks are contained as
// *engine.EngineError with the current product state's fingerprint.
func Product(g *Graph, mons []*Monitor) (p *Graph, err error) {
	meter := g.Meter()
	defer obs.SpanFromMeter(meter, "product:"+g.Sys.Name)()
	defer engine.Capture(&err, "ts.Product", nil)
	domains := make(map[string][]value.Value, len(g.Ctx.Domains)+len(mons))
	for k, v := range g.Ctx.Domains {
		domains[k] = v
	}
	for _, m := range mons {
		if _, dup := domains[m.Var]; dup {
			return nil, fmt.Errorf("monitor variable %q collides with a system variable", m.Var)
		}
		domains[m.Var] = m.Domain
	}

	// When the base graph was built under symmetry, the product inherits the
	// reduction: product states are canonicalized on their base part (monitor
	// values ride along unchanged), and every product edge records its real
	// successor. Monitors always evaluate on genuine base steps — the base
	// edge's real successor — never on representative-to-representative
	// pseudo-steps.
	//
	// Product candidates, and the canonical forms of product states, are
	// built positionally in per-expansion scratch from one layout computed
	// here; only states not already known are cloned.
	lay := newProductLayout(g, mons)
	pcanon := productCanon(g, lay)

	// Products are cached like base graphs, keyed by the base system's
	// description extended with the monitors' semantic descriptions. A
	// monitor without a Desc disables caching for this product.
	var desc string
	var resumeSnap *Snapshot
	if g.Sys.Cache != nil {
		if d, ok := productDesc(g.Sys, mons); ok {
			desc = d
			if snap := cacheLoad(g.Sys.Cache, meter, desc); snap != nil {
				return graphFromSnapshot(g.Sys, form.NewCtx(domains), meter, snap, pcanon), nil
			}
			if g.Sys.Resume {
				snap, lerr := g.Sys.Cache.LoadCheckpoint(desc)
				switch {
				case lerr != nil:
					meter.Note("cache-corrupt", fmt.Sprintf("product checkpoint unusable, cold build: %v", lerr))
				case snap != nil && !validSnapshot(snap, false):
					meter.Note("cache-corrupt", "product checkpoint fails validation, cold build")
				case snap != nil:
					resumeSnap = snap
					meter.Note("resume", fmt.Sprintf("product of %s: resuming from level %d (%d states)",
						g.Sys.Name, snap.Level, len(snap.States)))
				}
			}
		}
	}

	// Initial product states. A base init may admit no monitor values, and
	// all of them may: an empty product graph is a legal (vacuous) outcome,
	// unlike an empty base graph.
	var inits []*state.State
	if resumeSnap == nil {
		sc := lay.newScratch()
		for _, bid := range g.Inits {
			base := g.States[bid]
			allowed := true
			for j, m := range mons {
				vals, err := m.Init(base)
				if err != nil {
					return nil, fmt.Errorf("monitor %s init on %s: %w", m.Var, base, err)
				}
				if len(vals) == 0 {
					allowed = false
					break
				}
				sc.vals[j] = vals
			}
			if allowed {
				lay.each(sc, base, func(p *state.State) { inits = append(inits, p.Clone()) })
			}
		}
	}

	// The base id of a product state is recoverable from the state itself:
	// its base positions, copied into a scratch base state, resolve through
	// the base graph's fingerprint index. Expansion keeps no side table and
	// is safe for concurrent workers.
	res, err := explore(exploreParams{
		op:        "ts.Product",
		workers:   g.Sys.Workers,
		limit:     g.Sys.maxStates(),
		limitName: "monitor product",
		meter:     meter,
		inits:     inits,
		expand: func(cur *state.State, known func(*state.State) *state.State) ([]*state.State, error) {
			if cur.Len() != lay.tmpl.Len() {
				return nil, fmt.Errorf("ts.Product: product state %s does not match the product layout", cur)
			}
			sc := lay.getScratch()
			defer lay.scratch.Put(sc)
			lay.baseOf(sc, cur)
			bid := g.ID(sc.base)
			if bid < 0 {
				return nil, fmt.Errorf("ts.Product: base state %s not in base graph", sc.base)
			}
			var out []*state.State
			var expErr error
			g.ForEachSuccStep(bid, func(_ int, real *state.State) bool {
				baseStep := state.Step{From: g.States[bid], To: real}
				for j, m := range mons {
					vals, err := m.Step(baseStep, cur.At(lay.monPos[j]))
					if err != nil {
						expErr = fmt.Errorf("monitor %s step on %s: %w", m.Var, baseStep, err)
						return false
					}
					if len(vals) == 0 {
						return true // edge disallowed for every combination
					}
					sc.vals[j] = vals
				}
				lay.each(sc, real, func(p *state.State) {
					t := known(p)
					if t == nil {
						t = p.Clone()
					}
					out = append(out, t)
				})
				return true
			})
			if expErr != nil {
				return nil, expErr
			}
			return out, nil
		},
		canon:        pcanon,
		resume:       resumeSnap,
		onCheckpoint: checkpointSaver(g.Sys.Cache, meter, desc),
	})
	if err != nil {
		return nil, err
	}
	if pcanon != nil && res.symCollapsed > 0 {
		meter.NoteReduction("ts.Product", engine.ReductionStats{SymCollapsed: res.symCollapsed})
	}
	prod := &Graph{
		Sys:        g.Sys,
		Ctx:        form.NewCtx(domains),
		States:     res.states,
		Inits:      res.inits,
		offsets:    res.offsets,
		targets:    res.targets,
		edgeStates: res.edgeStates,
		idx:        res.idx,
		meter:      meter,
		reduced:    g.reduced,
		canon:      pcanon,
	}
	cacheStore(g.Sys.Cache, meter, desc, prod)
	return prod, nil
}

// productCanon lifts the base graph's symmetry canonicalizer to product
// states: the base part is canonicalized, the monitor bindings ride along
// unchanged. Returns nil when the base graph has no canonicalizer. Like
// every canon function, it returns its argument pointer when the state is
// already canonical, which it decides on a scratch copy of the base part
// without allocating.
func productCanon(g *Graph, lay *productLayout) func(*state.State) *state.State {
	if g.canon == nil {
		return nil
	}
	return func(s *state.State) *state.State {
		sc := lay.getScratch()
		defer lay.scratch.Put(sc)
		lay.baseOf(sc, s)
		c := g.canon(sc.base)
		if c == sc.base {
			return s
		}
		for i, p := range lay.basePos {
			sc.baseUps[i] = state.PosUpdate{Pos: p, Val: c.At(i)}
		}
		for j, p := range lay.monPos {
			sc.monUps[j] = state.PosUpdate{Pos: p, Val: s.At(p)}
		}
		lay.tmpl.OverwriteInto(sc.prod, sc.baseUps, sc.monUps)
		return sc.prod.Clone()
	}
}

// productLayout places the base and monitor variables of a product in the
// product states' sorted binding order. Product computes it once; every
// candidate is then built by OverwriteInto from tmpl, with no map, sort or
// per-combination state.
type productLayout struct {
	base    *state.State // a base state: the template of base scratch states
	tmpl    *state.State // a product state: the template of candidates
	basePos []int        // product position of each base position
	monPos  []int        // product position of each monitor variable
	// scratch recycles expansion scratch (*productScratch) across
	// expansions and workers.
	scratch sync.Pool
}

func newProductLayout(g *Graph, mons []*Monitor) *productLayout {
	base := state.New(nil)
	if len(g.States) > 0 {
		base = g.States[0]
	}
	zero := make(map[string]value.Value, len(mons))
	for _, m := range mons {
		zero[m.Var] = value.Value{}
	}
	l := &productLayout{base: base, tmpl: base.WithAll(zero)}
	for _, v := range base.Vars() {
		p, _ := l.tmpl.PosOf(v)
		l.basePos = append(l.basePos, p)
	}
	for _, m := range mons {
		p, _ := l.tmpl.PosOf(m.Var)
		l.monPos = append(l.monPos, p)
	}
	return l
}

// productScratch is one expansion's scratch: the base and product states
// candidates are built in, their update groups, and each monitor's allowed
// values with the odometer digits over them.
type productScratch struct {
	base, prod      *state.State
	baseUps, monUps []state.PosUpdate
	vals            [][]value.Value
	digits          []int
}

func (l *productLayout) newScratch() *productScratch {
	return &productScratch{
		base:    l.base.Clone(),
		prod:    l.tmpl.Clone(),
		baseUps: make([]state.PosUpdate, len(l.basePos)),
		monUps:  make([]state.PosUpdate, len(l.monPos)),
		vals:    make([][]value.Value, len(l.monPos)),
		digits:  make([]int, len(l.monPos)),
	}
}

// getScratch takes expansion scratch from the pool; return it with
// lay.scratch.Put.
func (l *productLayout) getScratch() *productScratch {
	if sc, ok := l.scratch.Get().(*productScratch); ok {
		return sc
	}
	return l.newScratch()
}

// baseOf writes the base part of product state cur into sc.base.
func (l *productLayout) baseOf(sc *productScratch, cur *state.State) {
	for i, p := range l.basePos {
		sc.baseUps[i] = state.PosUpdate{Pos: i, Val: cur.At(p)}
	}
	l.base.OverwriteInto(sc.base, sc.baseUps)
}

// each builds in sc.prod every product state extending base state b by one
// allowed value per monitor (sc.vals, all nonempty) and passes it to f,
// which must clone what it keeps. The last monitor varies fastest: product
// numbering depends on this order.
func (l *productLayout) each(sc *productScratch, b *state.State, f func(*state.State)) {
	for i, p := range l.basePos {
		sc.baseUps[i] = state.PosUpdate{Pos: p, Val: b.At(i)}
	}
	for j := range sc.digits {
		sc.digits[j] = 0
	}
	for {
		for j, p := range l.monPos {
			sc.monUps[j] = state.PosUpdate{Pos: p, Val: sc.vals[j][sc.digits[j]]}
		}
		l.tmpl.OverwriteInto(sc.prod, sc.baseUps, sc.monUps)
		f(sc.prod)
		if !nextAssignment(sc.digits, sc.vals) {
			return
		}
	}
}

// monitorDesc renders the canonical description of a constructor-built
// monitor from its defining formulas, so equal semantics yield equal cache
// keys regardless of how the closures were assembled.
func monitorDesc(kind string, init form.Expr, squares []form.Expr, v form.Expr, strict bool) string {
	var sb strings.Builder
	sb.WriteString(kind)
	sb.WriteString("-monitor(init=")
	writeExpr(&sb, init)
	sb.WriteString(", squares=[")
	for i, sq := range squares {
		if i > 0 {
			sb.WriteString("; ")
		}
		writeExpr(&sb, sq)
	}
	sb.WriteString("]")
	if v != nil {
		sb.WriteString(", v=")
		writeExpr(&sb, v)
	}
	if strict {
		sb.WriteString(", strict")
	}
	sb.WriteString(")")
	return sb.String()
}

// SafetyMonitor builds a two-state monitor tracking whether the safety
// formula with initial predicate init and step actions boxes (each already
// in [A]_v form) has held so far: the monitor value is TRUE while the
// prefix satisfies the formula and FALSE forever after. Both transitions
// out of TRUE are offered when the step satisfies the boxes, modelling the
// nondeterministic "die early" choice needed for +v (see PlusMonitor).
//
// If strict is true the monitor only dies when the safety formula is
// actually violated (no early death) — the right semantics for tracking
// closure death indices.
func SafetyMonitor(varName string, init form.Expr, squares []form.Expr, strict bool) *Monitor {
	// The squares are evaluated once per product edge per monitor value;
	// lazily compiled predicates (layout learned from the first step) keep
	// that hot path positional and allocation-free.
	sqPreds := make([]form.CompiledPred, len(squares))
	for i, sq := range squares {
		sqPreds[i] = form.LazyPred(sq)
	}
	var initPred form.CompiledPred
	if init != nil {
		initPred = form.LazyPred(init)
	}
	return &Monitor{
		Var:    varName,
		Domain: value.Bools(),
		Desc:   monitorDesc("safety", init, squares, nil, strict),
		Init: func(s *state.State) ([]value.Value, error) {
			ok := true
			if initPred != nil {
				var err error
				ok, err = initPred(state.Step{From: s})
				if err != nil {
					return nil, err
				}
			}
			if ok {
				return onlyTrue, nil
			}
			return onlyFalse, nil
		},
		Step: func(st state.Step, cur value.Value) ([]value.Value, error) {
			alive, _ := cur.AsBool()
			if !alive {
				return onlyFalse, nil
			}
			ok := true
			for _, sq := range sqPreds {
				good, err := sq(st)
				if err != nil {
					return nil, err
				}
				if !good {
					ok = false
					break
				}
			}
			if ok {
				if strict {
					return onlyTrue, nil
				}
				return trueOrFalse, nil
			}
			return onlyFalse, nil
		},
	}
}

// PlusMonitor builds the monitor for C(E) +v (§4.1): while TRUE, the
// E-safety conjuncts must hold on every step; the monitor may drop to FALSE
// at any time (or start FALSE), after which the state function v must never
// change. Edges violating the frozen-v requirement in the FALSE state are
// pruned from the product.
func PlusMonitor(varName string, init form.Expr, squares []form.Expr, v form.Expr) *Monitor {
	unchanged := form.LazyPred(form.UnchangedExpr(v))
	sqPreds := make([]form.CompiledPred, len(squares))
	for i, sq := range squares {
		sqPreds[i] = form.LazyPred(sq)
	}
	var initPred form.CompiledPred
	if init != nil {
		initPred = form.LazyPred(init)
	}
	return &Monitor{
		Var:    varName,
		Domain: value.Bools(),
		Desc:   monitorDesc("plus", init, squares, v, false),
		Init: func(s *state.State) ([]value.Value, error) {
			ok := true
			if initPred != nil {
				var err error
				ok, err = initPred(state.Step{From: s})
				if err != nil {
					return nil, err
				}
			}
			if ok {
				// May start alive, or immediately frozen (n = 0).
				return trueOrFalse, nil
			}
			return onlyFalse, nil
		},
		Step: func(st state.Step, cur value.Value) ([]value.Value, error) {
			alive, _ := cur.AsBool()
			if !alive {
				frozen, err := unchanged(st)
				if err != nil {
					return nil, err
				}
				if frozen {
					return onlyFalse, nil
				}
				return nil, nil // v changed after freezing: edge disallowed
			}
			ok := true
			for _, sq := range sqPreds {
				good, err := sq(st)
				if err != nil {
					return nil, err
				}
				if !good {
					ok = false
					break
				}
			}
			if ok {
				// Stay alive, or die with freezing starting at the target
				// state (the dying step itself may change v).
				return trueOrFalse, nil
			}
			// E violated on this step: freezing starts at the target.
			return onlyFalse, nil
		},
	}
}
