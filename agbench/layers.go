package main

import (
	"os"
	"strings"

	"opentla/internal/cache"
	"opentla/internal/obs"
	"opentla/internal/ts"
)

// Span names the benchmark itself records around the public calls it makes.
// The program's own spans (build:, product:, check:, theorem:, H1, H2a-A,
// H2a-B, H2b) nest inside them.
const (
	spanSetup    = "bench:setup"
	spanMeasure  = "bench:measure"
	spanInstance = "queue:instance"
	spanVet      = "vet"
	spanCQ       = "queue:CQ"
	spanCDQ      = "queue:CDQ"
	spanFig9     = "ag:fig9"
	spanNoG      = "ag:noG"
	spanLoad     = "cache:load"
	spanStore    = "cache:store"
)

// layerOf names the per-layer metric a span's self time is charged to, or
// "" for the benchmark's own glue (the root and its bench: and phase spans).
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "build:"):
		return "ts.build_s"
	case strings.HasPrefix(name, "product:"):
		return "ts.product_s"
	case name == "check:liveness":
		return "check.liveness_s"
	case strings.HasPrefix(name, "check:"):
		return "check.safety_s"
	case strings.HasPrefix(name, "cache:load"):
		return "cache.load_s"
	case strings.HasPrefix(name, "cache:store"):
		return "cache.store_s"
	case name == spanVet:
		return "vet.s"
	case name == spanInstance:
		return "queue.instance_s"
	case strings.HasPrefix(name, "theorem:"), strings.HasPrefix(name, "H1"), strings.HasPrefix(name, "H2"):
		return "ag.self_s"
	}
	return ""
}

// selfTimes charges every span's self time — its duration minus the part
// its children cover — to its layer, in seconds. Children of one span run
// one after another on the checking goroutine, so their durations add up.
// Glue self time is charged to "".
func selfTimes(s *obs.Span) map[string]float64 {
	out := map[string]float64{}
	var walk func(*obs.Span)
	walk = func(s *obs.Span) {
		self := s.DurMS
		for _, c := range s.Children {
			self -= c.DurMS
			walk(c)
		}
		if self < 0 {
			self = 0
		}
		out[layerOf(s.Name)] += self / 1e3
	}
	walk(s)
	return out
}

// inclusive sums the durations, in seconds, of the spans called name.
func inclusive(s *obs.Span, name string) float64 {
	var sum float64
	walkSpans(s, func(s *obs.Span) {
		if s.Name == name {
			sum += s.DurMS / 1e3
		}
	})
	return sum
}

func walkSpans(s *obs.Span, f func(*obs.Span)) {
	if s == nil {
		return
	}
	f(s)
	for _, c := range s.Children {
		walkSpans(c, f)
	}
}

func childSpan(s *obs.Span, name string) *obs.Span {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// timedCache wraps the graph cache in one span per call, so cache time
// shows as its own layer inside the build spans, and counts what the
// cache served. The checker calls it from its checking goroutine only.
type timedCache struct {
	c         *cache.Cache
	rec       *obs.Recorder
	loads     int
	hits      int
	stores    int
	loadBytes int64
}

func (t *timedCache) Load(desc string) (*ts.Snapshot, error) {
	end := t.rec.Span(spanLoad)
	snap, err := t.c.Load(desc)
	end()
	t.loads++
	if snap != nil {
		t.hits++
		if fi, err := os.Stat(t.c.EntryPath(desc)); err == nil {
			t.loadBytes += fi.Size()
		}
	}
	return snap, err
}

func (t *timedCache) Store(desc string, snap *ts.Snapshot) error {
	defer t.rec.Span(spanStore)()
	t.stores++
	return t.c.Store(desc, snap)
}

func (t *timedCache) LoadCheckpoint(desc string) (*ts.Snapshot, error) {
	defer t.rec.Span(spanLoad + "-checkpoint")()
	return t.c.LoadCheckpoint(desc)
}

func (t *timedCache) StoreCheckpoint(desc string, snap *ts.Snapshot) error {
	defer t.rec.Span(spanStore + "-checkpoint")()
	return t.c.StoreCheckpoint(desc, snap)
}

// layerMetrics derives the per-layer figures of one traced child from its
// run report (span tree and metric snapshot) and its cache wrapper (nil
// when the child used no cache). Times are in seconds.
func layerMetrics(rep *obs.Report, tc *timedCache) map[string]float64 {
	root := rep.Span
	out := selfTimes(root)
	delete(out, "")
	var attributed float64
	for _, v := range out {
		attributed += v
	}
	out["trace.attributed_s"] = attributed
	out["trace.root_s"] = root.DurMS / 1e3
	if m := childSpan(root, spanMeasure); m != nil {
		out["ts.build_measured_s"] = selfTimes(m)["ts.build_s"]
	}

	for _, p := range []struct{ metric, span string }{
		{"ag.H1_s", "H1"}, {"ag.H2a-A_s", "H2a-A"}, {"ag.H2a-B_s", "H2a-B"}, {"ag.H2b_s", "H2b"},
		{"ag.fig9_s", spanFig9}, {"ag.noG_s", spanNoG}, {"queue.cq_s", spanCQ}, {"queue.cdq_s", spanCDQ},
	} {
		out[p.metric] = inclusive(root, p.span)
	}
	walkSpans(root, func(s *obs.Span) {
		switch {
		case strings.HasPrefix(s.Name, "build:"):
			out["ts.states"] += float64(s.Stats.States)
			out["ts.transitions"] += float64(s.Stats.Transitions)
			if s.Stats.States > 0 {
				out["ts.builds"]++
			}
		case strings.HasPrefix(s.Name, "product:"):
			out["ts.product_states"] += float64(s.Stats.States)
		}
	})
	out["check.sccs"] = float64(rep.Stats.SCCs)

	pt := func(name string) float64 {
		for _, p := range rep.Metrics {
			if p.Name == name && p.Labels == "" {
				if p.Type == "histogram" {
					return float64(p.Sum)
				}
				return float64(p.Value)
			}
		}
		return 0
	}
	out["ts.worker_busy_s"] = pt("opentla_worker_busy_nanoseconds_total") / 1e9
	out["ts.barrier_wait_s"] = pt("opentla_barrier_wait_nanoseconds") / 1e9
	out["ts.commit_s"] = (pt("opentla_barrier_commit_nanoseconds_total") +
		pt("opentla_barrier_parallel_commit_nanoseconds_total")) / 1e9
	out["ts.levels"] = pt("opentla_levels_total")
	out["store.lock_acquisitions"] = pt("opentla_store_lock_acquisitions_total")
	out["store.lock_contended"] = pt("opentla_store_lock_contended_total")
	out["store.collision_probes"] = pt("opentla_store_collision_probes_total")
	out["reduce.canon_s"] = pt("opentla_canon_nanoseconds_total") / 1e9
	out["reduce.sym_collapsed"] = pt("opentla_reduce_sym_collapsed_total")
	out["reduce.succs"] = pt("opentla_reduce_ample_succs_total") + pt("opentla_reduce_full_succs_total")

	if tc != nil {
		out["cache.loads"] = float64(tc.loads)
		out["cache.hits"] = float64(tc.hits)
		out["cache.load_mb"] = float64(tc.loadBytes) / 1e6
		out["cache.stores"] = float64(tc.stores)
	}
	return out
}

// finishLayers turns summed raw figures into the reported per-layer
// metrics: it adds the ratios, computed from sums so that a round made of
// two children (fill and warm) weighs each by its work.
func finishLayers(raw map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(raw)+4)
	for k, v := range raw {
		out[k] = v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out["ts.states_per_s"] = ratio(raw["ts.states"], raw["ts.build_s"])
	out["store.lock_contended_ratio"] = ratio(raw["store.lock_contended"], raw["store.lock_acquisitions"])
	out["reduce.collapse_ratio"] = ratio(raw["reduce.sym_collapsed"], raw["reduce.succs"])
	out["cache.hit_ratio"] = ratio(raw["cache.hits"], raw["cache.loads"])
	out["trace.attributed_share"] = ratio(raw["trace.attributed_s"], raw["trace.root_s"])
	return out
}
