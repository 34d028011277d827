package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"opentla/internal/ag"
	"opentla/internal/cache"
	"opentla/internal/check"
	"opentla/internal/engine"
	tlametrics "opentla/internal/metrics"
	"opentla/internal/obs"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/value"
	"opentla/internal/vet"
)

// Child phases. A fig9-sym-warm round runs a fill child, whose whole run is
// the round's set-up, and then a measure child against the filled cache.
const (
	phaseMeasure = "measure"
	phaseFill    = "fill"
)

// childResult is what one child process reports on its standard output.
type childResult struct {
	// SetupS is the time before the measured part; a fill child reports
	// its whole run here.
	SetupS float64 `json:"setup_s"`
	// The rest cover the measured part only.
	WallS        float64 `json:"wall_s"`
	CPUS         float64 `json:"cpu_s"`
	AllocBytes   float64 `json:"alloc_bytes"`
	AllocObjects float64 `json:"alloc_objects"`
	GCCPUS       float64 `json:"gc_cpu_s"`
	GCCycles     float64 `json:"gc_cycles"`
	// Layers holds the raw per-layer figures of a traced child.
	Layers map[string]float64 `json:"layers,omitempty"`
	Prov   provenance         `json:"provenance"`
}

// provenance records what the child ran on.
type provenance struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
}

// childMain runs one workload in this process and prints a childResult. A
// wrong verdict or a failed call exits 1 with the reason on stderr; a panic
// exits 2. Either way the parent counts the run as failed.
func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("agbench child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	phase := fs.String("phase", phaseMeasure, "measure | fill")
	seed := fs.Int64("seed", 1, "input seed")
	cacheDir := fs.String("cache-dir", "", "graph cache directory (fig9-sym-warm)")
	traced := fs.Bool("traced", false, "attach the recorder and metric registry")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := runChild(*name, *phase, *seed, *cacheDir, *traced)
	if err != nil {
		fmt.Fprintf(stderr, "agbench child %s/%s: %v\n", *name, *phase, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "agbench child:", err)
		return 1
	}
	return 0
}

// probe is a reading of the process's clocks and allocation counters.
type probe struct {
	t   time.Time
	cpu time.Duration
	rm  []metrics.Sample
}

var probeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readProbe() probe {
	p := probe{rm: make([]metrics.Sample, len(probeMetrics))}
	for i, n := range probeMetrics {
		p.rm[i].Name = n
	}
	metrics.Read(p.rm)
	var ru syscall.Rusage
	// RUSAGE_SELF covers every thread of the process, GC workers included.
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	p.t = time.Now()
	return p
}

func (p probe) value(i int) float64 {
	v := p.rm[i].Value
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// fill records the measured part between p and end into r.
func (p probe) fill(r *childResult, end probe) {
	r.WallS = end.t.Sub(p.t).Seconds()
	r.CPUS = (end.cpu - p.cpu).Seconds()
	r.AllocBytes = end.value(0) - p.value(0)
	r.AllocObjects = end.value(1) - p.value(1)
	r.GCCPUS = end.value(2) - p.value(2)
	r.GCCycles = end.value(3) - p.value(3)
}

// env is what a workload's calls share: the meter every call draws from,
// the recorder (nil when untraced) and the worker count.
type env struct {
	m       *engine.Meter
	rec     *obs.Recorder
	workers int
	seed    int64
	// vet is the latest vet result, for the per-layer vet figures.
	vet *vet.Result
}

// span opens a benchmark span on the recorder; a no-op when untraced.
func (e *env) span(name string) func() { return e.rec.Span(name) }

func runChild(name, phase string, seed int64, cacheDir string, traced bool) (*childResult, error) {
	e := &env{m: engine.NoLimit(), workers: engine.DefaultWorkers(), seed: seed}
	if traced {
		e.rec = obs.New(e.m)
		e.rec.SetMetrics(tlametrics.NewRegistry())
	}
	res := &childResult{Prov: provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    e.workers,
		GoVersion:  runtime.Version(),
	}}
	var tc *timedCache
	var err error
	switch name {
	case "fig9-cold":
		err = fig9Child(e, res, coldInstance, coldWant, nil, phase == phaseFill)
	case "fig9-sym-warm":
		var c *cache.Cache
		if c, err = cache.Open(cacheDir); err != nil {
			return nil, fmt.Errorf("opening cache: %w", err)
		}
		var gc ts.GraphCache = c
		if traced {
			tc = &timedCache{c: c, rec: e.rec}
			gc = tc
		}
		err = fig9Child(e, res, symInstance, symWant, gc, phase == phaseFill)
	case "vet-refuse":
		err = vetChild(e, res)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	if traced {
		rep := e.rec.Finish("agbench", obs.Config{Model: name, Workers: e.workers}, engine.Holds, "")
		res.Layers = layerMetrics(rep, tc)
		if e.vet != nil && e.vet.Bound != nil {
			res.Layers["vet.bound_states"] = float64(e.vet.Bound.States)
		}
		if e.vet != nil {
			res.Layers["vet.diagnostics"] = float64(len(e.vet.Diagnostics))
		}
	}
	return res, nil
}

// fig9Instance is one Appendix A configuration of the pipeline.
type fig9Instance struct {
	cfg    queue.Config
	reduce reduce.Options
}

var (
	coldInstance = fig9Instance{cfg: queue.Config{N: 1, Vals: 3}}
	symInstance  = fig9Instance{cfg: queue.Config{N: 1, Vals: 4}, reduce: reduce.Options{Sym: true}}

	coldWant = pipelineWant{
		CQStates: 198, CQEdges: 564, CDQStates: 3186, CDQEdges: 10122,
		Fig9Hyps: 10, Fig9States: 9792, NoGFirstFail: "H1[Q1]",
	}
	// Under -reduce sym the CQ build and the safety-only Fig. 9 graphs are
	// reduced, so only the full CDQ graph's size is asserted.
	symWant = pipelineWant{CDQStates: 10348, Fig9Hyps: 10, NoGFirstFail: "H1[Q1]"}
)

// fig9Child sets up one Appendix A instance the way queueverify does —
// build the instance, run the warn-mode vet pre-check — and then runs the
// pipeline: the CQ build, CDQ ⇒ CQ^dbl, the Fig. 9 theorem and formula (3)
// without G, in an order drawn from the seed. A fill child counts all of it
// as set-up.
func fig9Child(e *env, res *childResult, in fig9Instance, want pipelineWant, gc ts.GraphCache, fill bool) error {
	start := time.Now()
	endSetup := e.span(spanSetup)
	if err := fig9Vet(e, in.cfg); err != nil {
		return err
	}
	endSetup()

	spanName := spanMeasure
	if fill {
		spanName = spanSetup
	}
	endRun := e.span(spanName)
	before := readProbe()
	res.SetupS = before.t.Sub(start).Seconds()
	got, err := runPipeline(e, in, gc)
	after := readProbe()
	endRun()
	if err != nil {
		return err
	}
	if err := want.check(got); err != nil {
		return err
	}
	if fill {
		res.SetupS = after.t.Sub(start).Seconds()
		return nil
	}
	before.fill(res, after)
	return nil
}

// instance is what the vet pre-check analyzes: the Fig. 9 theorem and the
// complete single queue CQ with its domains.
type instance struct {
	th      *ag.Theorem
	cq      []*spec.Component
	domains map[string][]value.Value
}

func newInstance(e *env, cfg queue.Config) instance {
	defer e.span(spanInstance)()
	return instance{
		th: cfg.Fig9Theorem(),
		cq: []*spec.Component{
			queue.QE("QE", queue.In, queue.Out, cfg.ValueDomain()),
			queue.QM("QM", cfg.N, queue.In, queue.Out, "q", cfg.ValueDomain()),
		},
		domains: cfg.Domains(),
	}
}

func (in instance) vetCQ() *vet.Result {
	return vet.Composition("CQ", in.cq, nil, vet.Options{Domains: in.domains})
}

// fig9Vet builds the instance and runs queueverify's warn-mode vet
// pre-check over it; errors fail the run.
func fig9Vet(e *env, cfg queue.Config) error {
	in := newInstance(e, cfg)
	defer e.span(spanVet)()
	res := in.th.Vet()
	res.Merge(in.vetCQ())
	e.vet = res
	if res.HasErrors() {
		return fmt.Errorf("vet: %d errors:\n%s", res.Errors(), res)
	}
	return nil
}

// runPipeline runs the four Appendix A phases against the shared meter.
// They are independent, so the seed permutes their order.
func runPipeline(e *env, in fig9Instance, gc ts.GraphCache) (pipelineOutcome, error) {
	var out pipelineOutcome
	cfg := in.cfg
	theorem := func(withG bool) (*ag.Report, error) {
		th := cfg.Fig9Theorem()
		if !withG {
			th.Name = "formula (3): composition WITHOUT G"
			th.Pairs = th.Pairs[1:]
		}
		th.Workers = e.workers
		th.Cache = gc
		th.Reduce = in.reduce
		th.Symmetry = cfg.DoubleSymmetry()
		return th.CheckWith(e.m)
	}
	phases := []func() error{
		func() error { // §A.2: the complete single queue CQ.
			defer e.span(spanCQ)()
			sys := cfg.SingleSystem()
			sys.Workers = e.workers
			sys.Cache = gc
			if in.reduce.Any() {
				sys.Reduce = &reduce.Config{Options: in.reduce, Symmetry: cfg.SingleSymmetry()}
			}
			g, err := sys.BuildWith(e.m)
			if err != nil {
				return fmt.Errorf("building CQ: %w", err)
			}
			out.CQStates, out.CQEdges = g.NumStates(), g.NumEdges()
			return nil
		},
		func() error { // §A.4: CDQ implements CQ^dbl.
			defer e.span(spanCDQ)()
			sys := cfg.DoubleSystem(true)
			sys.Workers = e.workers
			sys.Cache = gc
			g, err := sys.BuildWith(e.m)
			if err != nil {
				return fmt.Errorf("building CDQ: %w", err)
			}
			out.CDQStates, out.CDQEdges = g.NumStates(), g.NumEdges()
			envRes, err := check.Safety(g, queue.QE("QEdbl", queue.In, queue.Out, cfg.ValueDomain()).SafetyFormula())
			if err != nil {
				return err
			}
			sysRes, err := check.Component(g, cfg.DoubleQueueSpec(), queue.DoubleMapping())
			if err != nil {
				return err
			}
			out.CDQHolds = envRes.Holds && sysRes.Holds()
			return nil
		},
		func() (err error) { // §A.5: the Fig. 9 composition.
			defer e.span(spanFig9)()
			out.Fig9, err = theorem(true)
			return err
		},
		func() (err error) { // §A.5: without G the claim is not established.
			defer e.span(spanNoG)()
			out.NoG, err = theorem(false)
			return err
		},
	}
	for _, i := range rand.New(rand.NewSource(e.seed)).Perm(len(phases)) {
		if err := phases[i](); err != nil {
			return out, err
		}
	}
	return out, nil
}

// refuseWant is the strict-vet refusal of the oversized Fig. 9 instance.
var (
	refuseConfig = queue.Config{N: 4, Vals: 4}
	refuseWant   = vetWant{Budget: 1_000_000, Bound: 166474205286400}
)

// vetChild runs strict vet on an instance whose state space is far past
// the budget. Set-up materializes the instance's sequence domains; the
// measured part is the analysis that refuses the run, in an order drawn
// from the seed.
func vetChild(e *env, res *childResult) error {
	start := time.Now()
	endSetup := e.span(spanSetup)
	in := newInstance(e, refuseConfig)
	endSetup()

	endRun := e.span(spanMeasure)
	before := readProbe()
	res.SetupS = before.t.Sub(start).Seconds()
	endVet := e.span(spanVet)
	results := make([]*vet.Result, 2)
	analyses := []func(){
		func() { results[0] = in.th.Vet() },
		func() { results[1] = in.vetCQ() },
	}
	for _, i := range rand.New(rand.NewSource(e.seed)).Perm(len(analyses)) {
		analyses[i]()
	}
	// The theorem's result goes first: its composition-level bound covers
	// the whole system and wins the merge, as in queueverify.
	r := results[0]
	r.Merge(results[1])
	over := r.CheckBudget(refuseWant.Budget)
	endVet()
	e.vet = r
	after := readProbe()
	endRun()
	if err := refuseWant.check(r, over); err != nil {
		return err
	}
	before.fill(res, after)
	return nil
}
