// Package state defines states (assignments of values to variables), steps
// (pairs of states), finite behaviors, and lasso representations of infinite
// behaviors, following the semantics of TLA in Abadi & Lamport,
// "Open Systems in TLA" (§2.1).
package state

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"opentla/internal/value"
)

type binding struct {
	name string
	val  value.Value
}

// State is an immutable assignment of values to a finite set of variables.
// In the paper a state assigns values to all variables of the universe; here
// a State mentions only the variables relevant to the systems under check,
// which is sound because every formula we evaluate mentions only those.
//
// Concurrency contract: a State is immutable after construction and safe to
// share across goroutines without synchronization. The only mutable word is
// the lazily cached fingerprint, which is maintained with atomic loads and
// stores (see Fingerprint).
type State struct {
	bindings []binding // sorted by name
	fp       uint64    // lazily cached fingerprint (0 = not yet computed); aglint:atomic
}

// New constructs a state from a variable→value map.
func New(vars map[string]value.Value) *State {
	bs := make([]binding, 0, len(vars))
	for n, v := range vars {
		bs = append(bs, binding{name: n, val: v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].name < bs[j].name })
	return &State{bindings: bs}
}

// FromPairs constructs a state from alternating name/value pairs, e.g.
// FromPairs("x", value.Int(0), "y", value.True). It panics on a malformed
// argument list; it is intended for tests and example construction.
func FromPairs(pairs ...any) *State {
	if len(pairs)%2 != 0 {
		panic("state.FromPairs: odd number of arguments")
	}
	m := make(map[string]value.Value, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("state.FromPairs: argument %d is not a string", i))
		}
		v, ok := pairs[i+1].(value.Value)
		if !ok {
			panic(fmt.Sprintf("state.FromPairs: argument %d is not a value.Value", i+1))
		}
		m[name] = v
	}
	return New(m)
}

// Get returns the value of variable name. The second result is false if the
// state does not bind name. The binary search is hand-rolled: Get is the
// innermost call of formula evaluation and sort.Search's closure defeats
// inlining.
func (s *State) Get(name string) (value.Value, bool) {
	lo, hi := 0, len(s.bindings)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.bindings[mid].name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.bindings) && s.bindings[lo].name == name {
		return s.bindings[lo].val, true
	}
	return value.Value{}, false
}

// At returns the value at binding position i in the state's sorted name
// order — the positional dual of Get, used by compiled expression
// evaluation (form.CompilePred) after positions are resolved once against
// a fixed variable layout. The caller must ensure 0 <= i < Len().
func (s *State) At(i int) value.Value { return s.bindings[i].val }

// MustGet returns the value of variable name and panics if unbound. Use in
// contexts where the variable set has been validated.
func (s *State) MustGet(name string) value.Value {
	v, ok := s.Get(name)
	if !ok {
		panic(fmt.Sprintf("state: variable %q unbound", name))
	}
	return v
}

// With returns a new state equal to s except that name is bound to v.
func (s *State) With(name string, v value.Value) *State {
	out := make([]binding, 0, len(s.bindings)+1)
	inserted := false
	for _, b := range s.bindings {
		switch {
		case b.name == name:
			out = append(out, binding{name: name, val: v})
			inserted = true
		case !inserted && b.name > name:
			out = append(out, binding{name: name, val: v}, b)
			inserted = true
		default:
			out = append(out, b)
		}
	}
	if !inserted {
		out = append(out, binding{name: name, val: v})
	}
	return &State{bindings: out}
}

// WithAll returns a new state equal to s with every binding in updates
// applied. Existing bindings are replaced; new names are inserted in order.
func (s *State) WithAll(updates map[string]value.Value) *State {
	if len(updates) == 0 {
		return s
	}
	news := make([]binding, 0, len(updates))
	for n, v := range updates {
		news = append(news, binding{name: n, val: v})
	}
	sort.Slice(news, func(i, j int) bool { return news[i].name < news[j].name })
	out := make([]binding, 0, len(s.bindings)+len(news))
	i, j := 0, 0
	for i < len(s.bindings) && j < len(news) {
		switch {
		case s.bindings[i].name < news[j].name:
			out = append(out, s.bindings[i])
			i++
		case s.bindings[i].name > news[j].name:
			out = append(out, news[j])
			j++
		default:
			out = append(out, news[j])
			i++
			j++
		}
	}
	out = append(out, s.bindings[i:]...)
	out = append(out, news[j:]...)
	return &State{bindings: out}
}

// PosUpdate assigns Val to the binding at index Pos in a state's sorted
// binding order (see PosOf). Positional updates let the successor generator
// build candidate states with a single slice copy instead of repeated
// map-merge-sort passes.
type PosUpdate struct {
	Pos int
	Val value.Value
}

// PosOf returns the index of name within the state's sorted bindings, for
// use with CloneWith.
func (s *State) PosOf(name string) (int, bool) {
	lo, hi := 0, len(s.bindings)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.bindings[mid].name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.bindings) && s.bindings[lo].name == name {
		return lo, true
	}
	return -1, false
}

// CloneWith returns a copy of s with every update group applied in order.
// Groups may be nil or empty; positions must come from PosOf on a state
// with the same variable set. Unlike WithAll it cannot introduce new
// variables — it only reassigns existing ones.
func (s *State) CloneWith(groups ...[]PosUpdate) *State {
	bs := make([]binding, len(s.bindings))
	copy(bs, s.bindings)
	for _, g := range groups {
		for _, u := range g {
			bs[u.Pos].val = u.Val
		}
	}
	return &State{bindings: bs}
}

// OverwriteInto copies s's bindings into dst (reusing its capacity), applies
// the update groups, and invalidates dst's cached fingerprint. It exists so
// successor enumeration, monitor products and Init enumeration can build
// millions of candidate states in a single scratch State instead of
// allocating one per candidate; dst must be goroutine-local and must not
// escape while being reused. A scratch candidate may be evaluated,
// fingerprinted and used as a lookup key (an equal state already stored is
// then used in its place); only a candidate that is kept and not already
// known is materialized, with Clone.
func (s *State) OverwriteInto(dst *State, groups ...[]PosUpdate) {
	if cap(dst.bindings) < len(s.bindings) {
		dst.bindings = make([]binding, len(s.bindings))
	}
	dst.bindings = dst.bindings[:len(s.bindings)]
	copy(dst.bindings, s.bindings)
	for _, g := range groups {
		for _, u := range g {
			dst.bindings[u.Pos].val = u.Val
		}
	}
	atomic.StoreUint64(&dst.fp, 0)
}

// Clone returns an immutable snapshot of s, preserving the cached
// fingerprint. It materializes a scratch state (see OverwriteInto) into one
// that may be shared and retained; explorers call it only for candidates
// that no stored state equals.
func (s *State) Clone() *State {
	bs := make([]binding, len(s.bindings))
	copy(bs, s.bindings)
	return &State{bindings: bs, fp: atomic.LoadUint64(&s.fp)}
}

// Restrict returns the state containing only the named variables (those of
// them that s binds).
func (s *State) Restrict(names []string) *State {
	m := make(map[string]value.Value, len(names))
	for _, n := range names {
		if v, ok := s.Get(n); ok {
			m[n] = v
		}
	}
	return New(m)
}

// Drop returns the state without the named variables.
func (s *State) Drop(names []string) *State {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	m := make(map[string]value.Value, len(s.bindings))
	for _, b := range s.bindings {
		if !drop[b.name] {
			m[b.name] = b.val
		}
	}
	return New(m)
}

// Vars returns the sorted variable names bound by s.
func (s *State) Vars() []string {
	out := make([]string, len(s.bindings))
	for i, b := range s.bindings {
		out[i] = b.name
	}
	return out
}

// Map returns a fresh map copy of the bindings.
func (s *State) Map() map[string]value.Value {
	m := make(map[string]value.Value, len(s.bindings))
	for _, b := range s.bindings {
		m[b.name] = b.val
	}
	return m
}

// Len returns the number of bound variables.
func (s *State) Len() int { return len(s.bindings) }

// Equal reports whether s and t bind the same variables to equal values.
func (s *State) Equal(t *State) bool {
	if s == t {
		return true
	}
	if s == nil || t == nil || len(s.bindings) != len(t.bindings) {
		return false
	}
	for i := range s.bindings {
		if s.bindings[i].name != t.bindings[i].name || !s.bindings[i].val.Equal(t.bindings[i].val) {
			return false
		}
	}
	return true
}

// EqualOn reports whether s and t agree on every variable in names.
// Variables unbound in both states are considered in agreement.
func (s *State) EqualOn(t *State, names []string) bool {
	for _, n := range names {
		sv, sok := s.Get(n)
		tv, tok := t.Get(n)
		if sok != tok {
			return false
		}
		if sok && !sv.Equal(tv) {
			return false
		}
	}
	return true
}

// Fingerprint returns the 64-bit hash of the state, computed lazily and
// cached. It is safe for concurrent use: states are shared across the
// worker goroutines of the parallel frontier exploration, so the cache word
// is read and written atomically. Racing callers may each compute the
// (identical, deterministic) hash; whichever store lands last is the same
// value, so no caller ever observes a torn or stale fingerprint.
func (s *State) Fingerprint() uint64 {
	if fp := atomic.LoadUint64(&s.fp); fp != 0 {
		return fp
	}
	fp := s.computeFingerprint()
	if fp == 0 {
		fp = 1 // reserve 0 as the "not yet computed" sentinel
	}
	atomic.StoreUint64(&s.fp, fp)
	return fp
}

// FNV-1a 64-bit constants; the hash is unrolled by hand because this is the
// hottest function of graph exploration and hash/fnv's interface-based
// Writer both allocates and defeats inlining. The byte stream (and hence
// every fingerprint) is identical to the previous hash/fnv implementation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func (s *State) computeFingerprint() uint64 {
	h := uint64(fnvOffset64)
	for _, b := range s.bindings {
		for i := 0; i < len(b.name); i++ {
			h = (h ^ uint64(b.name[i])) * fnvPrime64
		}
		h = (h ^ '=') * fnvPrime64
		f := b.val.Fingerprint()
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(f>>(8*i)))) * fnvPrime64
		}
		h = (h ^ ';') * fnvPrime64
	}
	return h
}

// Key returns a canonical string key for the state, usable as a map key
// with no collision risk (unlike Fingerprint).
func (s *State) Key() string {
	var sb strings.Builder
	for _, b := range s.bindings {
		sb.WriteString(b.name)
		sb.WriteByte('=')
		sb.WriteString(b.val.String())
		sb.WriteByte(';')
	}
	return sb.String()
}

// String renders the state as [x=1 y=TRUE ...].
func (s *State) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, b := range s.bindings {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(b.name)
		sb.WriteByte('=')
		sb.WriteString(b.val.String())
	}
	sb.WriteByte(']')
	return sb.String()
}

// Step is a pair of states ⟨From, To⟩. An action is true or false of a
// step, with primed variables referring to To (§2.1).
type Step struct {
	From *State
	To   *State
}

// Stutters reports whether the step leaves every variable in names
// unchanged (a ⟨names⟩-stuttering step).
func (p Step) Stutters(names []string) bool { return p.From.EqualOn(p.To, names) }

// String renders the step.
func (p Step) String() string { return p.From.String() + " -> " + p.To.String() }
