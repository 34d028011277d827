// Command agbench is the benchmark of the Appendix A checker. It drives the
// checker through its library API the way queueverify does and reports
// end-to-end and per-layer metrics for three workloads:
//
//   - fig9-cold: the Appendix A pipeline at N=1, K=3 with no reduction and
//     no graph cache — exploration, products and checks from scratch.
//   - fig9-sym-warm: the pipeline at N=1, K=4 under symmetry reduction,
//     measured against a graph cache a cold run has just filled.
//   - vet-refuse: strict vet on the oversized N=4, K=4 instance, which it
//     must refuse with SV140 before exploring anything.
//
// Usage (from the repository root; agbench/run.sh builds and runs it):
//
//	agbench --workload fig9-cold --seed 1 --seconds 30 --trace 0
//	agbench --workload all --seconds 60
//
// Every measured run is a fresh child process (the same binary, re-executed
// with "child"), and rounds of several workloads are interleaved. Each child
// checks its verdicts; a mismatch or a crash counts as a failed run and
// stays out of the timings. The last line of standard output is one JSON
// object with the run counts and the metrics: with --trace 0 the end-to-end
// medians, with --trace 1 the per-layer figures of traced children, taken
// from the recorder's span tree and metric registry, interleaved with
// untraced children whose wall time gives the tracing overhead.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

var workloadNames = []string{"fig9-cold", "fig9-sym-warm", "vet-refuse"}

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"allocs_m", "M"},
}

var perLayer = []metricDef{
	{"ts.build_s", "s"},
	{"ts.build_measured_s", "s"},
	{"ts.builds", "count"},
	{"ts.states", "count"},
	{"ts.transitions", "count"},
	{"ts.states_per_s", "1/s"},
	{"ts.worker_busy_s", "s"},
	{"ts.barrier_wait_s", "s"},
	{"ts.commit_s", "s"},
	{"ts.levels", "count"},
	{"ts.product_s", "s"},
	{"ts.product_states", "count"},
	{"store.lock_acquisitions", "count"},
	{"store.lock_contended_ratio", "ratio"},
	{"store.collision_probes", "count"},
	{"reduce.canon_s", "s"},
	{"reduce.sym_collapsed", "count"},
	{"reduce.collapse_ratio", "ratio"},
	{"check.safety_s", "s"},
	{"check.liveness_s", "s"},
	{"check.sccs", "count"},
	{"ag.self_s", "s"},
	{"ag.H1_s", "s"},
	{"ag.H2a-A_s", "s"},
	{"ag.H2a-B_s", "s"},
	{"ag.H2b_s", "s"},
	{"ag.fig9_s", "s"},
	{"ag.noG_s", "s"},
	{"queue.cq_s", "s"},
	{"queue.cdq_s", "s"},
	{"queue.instance_s", "s"},
	{"cache.loads", "count"},
	{"cache.load_s", "s"},
	{"cache.load_mb", "MB"},
	{"cache.hit_ratio", "ratio"},
	{"cache.stores", "count"},
	{"cache.store_s", "s"},
	{"vet.s", "s"},
	{"vet.bound_states", "count"},
	{"vet.diagnostics", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"trace.wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.attributed_share", "ratio"},
	{"host.steal_share", "ratio"},
}

// round is one measured run of a workload: one child, or for fig9-sym-warm
// a fill child and a measure child sharing a fresh cache directory.
type round struct {
	setup, wall, cpu, rssMB, allocMB, allocsM, gcCPU, gcCycles float64
	// layers holds the summed raw per-layer figures of a traced round.
	layers map[string]float64
	prov   provenance
}

// tally collects one workload's rounds.
type tally struct {
	attempted, failed int
	plain, traced     []round
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("agbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload: "+strings.Join(workloadNames, " | ")+" | all")
	seed := fs.Int64("seed", 1, "input seed: orders the independent phases of each workload")
	seconds := fs.Int("seconds", 30, "how long to keep starting measured rounds")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from traced rounds, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames
	if *workload != "all" {
		names = []string{*workload}
		if !known(*workload) {
			fmt.Fprintf(stderr, "agbench: unknown workload %q (want %s or all)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "agbench: want --workload, --seed, --seconds >= 1 and --trace 0|1")
		return 2
	}
	traced := *traceFlag == 1

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "agbench:", err)
		return 1
	}
	tmp, err := filepath.Abs(filepath.Join(".bench_build", "tmp"))
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "agbench:", err)
		return 1
	}
	budget := time.Duration(*seconds) * time.Second
	// A child that hangs is killed once the run is well past its budget.
	ctx, cancel := context.WithTimeout(context.Background(), budget+120*time.Second)
	defer cancel()
	r := &runner{ctx: ctx, exe: exe, tmp: tmp, seed: *seed, stderr: stderr}

	// Interleave the workloads round by round until the time is up and
	// every workload has a round (a traced and an untraced one with
	// --trace 1). With --trace 1 every other round is traced.
	tallies := make([]*tally, len(names))
	for i := range tallies {
		tallies[i] = &tally{}
	}
	stealStart := readSteal()
	start := time.Now()
	for i := 0; ; i = (i + 1) % len(names) {
		// A workload that keeps failing ends the run at twice its budget.
		if el := time.Since(start); i == 0 && el >= budget && (allHave(tallies, traced) || el >= 2*budget) {
			break
		}
		t := tallies[i]
		tracedRound := traced && t.attempted%2 == 1
		t.attempted++
		rd, err := r.round(names[i], tracedRound)
		switch {
		case err != nil:
			t.failed++
			fmt.Fprintf(stderr, "agbench: %s: failed run: %v\n", names[i], err)
		case tracedRound:
			t.traced = append(t.traced, rd)
		default:
			t.plain = append(t.plain, rd)
		}
		if err == nil {
			fmt.Fprintf(stderr, "agbench: %s round %d (traced=%v): wall %.4f s, cpu %.4f s, setup %.4f s, rss %.1f MB, alloc %.1f MB\n",
				names[i], t.attempted, tracedRound, rd.wall, rd.cpu, rd.setup, rd.rssMB, rd.allocMB)
		}
		if ctx.Err() != nil {
			fmt.Fprintln(stderr, "agbench: out of time")
			return 1
		}
	}
	steal := readSteal().shareSince(stealStart)

	out := result{Correct: true, Metrics: map[string]metricValue{}}
	for i, name := range names {
		t := tallies[i]
		out.Attempted += t.attempted
		out.Failed += t.failed
		if t.failed > 0 {
			out.Correct = false
		}
		if len(t.plain) == 0 || (traced && len(t.traced) == 0) {
			fmt.Fprintf(stderr, "agbench: %s: no successful round\n", name)
			return 1
		}
		prefix := ""
		if len(names) > 1 {
			prefix = name + "."
		}
		var vals map[string]float64
		defs := endToEnd
		if traced {
			vals, defs = layerSummary(t, steal), perLayer
		} else {
			vals = endToEndSummary(t.plain)
		}
		for _, d := range defs {
			out.Metrics[prefix+d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
		}
		prov, _ := json.Marshal(map[string]any{
			"workload": name, "seed": *seed, "rounds": t.attempted, "failed": t.failed,
			"nproc": t.plain[0].prov.NumCPU, "gomaxprocs": t.plain[0].prov.GOMAXPROCS,
			"workers": t.plain[0].prov.Workers, "go_version": t.plain[0].prov.GoVersion,
			"host.steal_share": steal,
		})
		fmt.Fprintf(stderr, "agbench: provenance %s\n", prov)
		if traced {
			printAttribution(stderr, name, vals)
		}
	}
	if len(names) > 1 {
		printTable(stdout, names, out.Metrics, traced)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "agbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func known(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// allHave reports whether every workload has an untraced round and, when
// traced, a traced one.
func allHave(ts []*tally, traced bool) bool {
	for _, t := range ts {
		if len(t.plain) == 0 || (traced && len(t.traced) == 0) {
			return false
		}
	}
	return true
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEndSummary takes the median of every end-to-end metric over rounds.
func endToEndSummary(rs []round) map[string]float64 {
	col := func(f func(round) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	return map[string]float64{
		"wall_s":      col(func(r round) float64 { return r.wall }),
		"cpu_s":       col(func(r round) float64 { return r.cpu }),
		"setup_s":     col(func(r round) float64 { return r.setup }),
		"peak_rss_mb": col(func(r round) float64 { return r.rssMB }),
		"alloc_mb":    col(func(r round) float64 { return r.allocMB }),
		"allocs_m":    col(func(r round) float64 { return r.allocsM }),
	}
}

// layerSummary takes the median of every per-layer figure over the traced
// rounds, and of the runtime's GC figures over the untraced ones, which run
// as users run the checker. The tracing overhead compares the two.
func layerSummary(t *tally, steal float64) map[string]float64 {
	perKey := map[string][]float64{}
	var tracedWall []float64
	for _, r := range t.traced {
		for k, v := range finishLayers(r.layers) {
			perKey[k] = append(perKey[k], v)
		}
		tracedWall = append(tracedWall, r.wall)
	}
	out := map[string]float64{}
	for k, xs := range perKey {
		out[k] = median(xs)
	}
	plain := endToEndSummary(t.plain)
	gcCPU, gcCycles := make([]float64, len(t.plain)), make([]float64, len(t.plain))
	for i, r := range t.plain {
		gcCPU[i], gcCycles[i] = r.gcCPU, r.gcCycles
	}
	out["runtime.gc_cpu_s"] = median(gcCPU)
	out["runtime.gc_cycles"] = median(gcCycles)
	out["trace.wall_s"] = median(tracedWall)
	out["trace.overhead_s"] = out["trace.wall_s"] - plain["wall_s"]
	out["host.steal_share"] = steal
	return out
}

// runner starts child processes.
type runner struct {
	ctx    context.Context
	exe    string
	tmp    string // parent of the per-round cache directories
	seed   int64
	stderr io.Writer
}

// round runs one measured round of workload w.
func (r *runner) round(w string, traced bool) (round, error) {
	if w != "fig9-sym-warm" {
		res, rss, err := r.child(w, phaseMeasure, "", traced)
		if err != nil {
			return round{}, err
		}
		rd := fromChild(res, rss)
		rd.layers = res.Layers
		return rd, nil
	}
	dir, err := os.MkdirTemp(r.tmp, "cache-")
	if err != nil {
		return round{}, err
	}
	defer os.RemoveAll(dir)
	fill, _, err := r.child(w, phaseFill, dir, traced)
	if err != nil {
		return round{}, err
	}
	warm, rss, err := r.child(w, phaseMeasure, dir, traced)
	if err != nil {
		return round{}, err
	}
	rd := fromChild(warm, rss)
	rd.setup = fill.SetupS + warm.SetupS
	if traced {
		rd.layers = sumLayers(fill.Layers, warm.Layers)
	}
	return rd, nil
}

func fromChild(c *childResult, rssMB float64) round {
	return round{
		setup: c.SetupS, wall: c.WallS, cpu: c.CPUS, rssMB: rssMB,
		allocMB: c.AllocBytes / 1e6, allocsM: c.AllocObjects / 1e6,
		gcCPU: c.GCCPUS, gcCycles: c.GCCycles, prov: c.Prov,
	}
}

// sumLayers adds two children's raw figures. The vet figures describe the
// instance, not work done, so a round reports one child's, not their sum.
func sumLayers(a, b map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range []map[string]float64{a, b} {
		for k, v := range m {
			if strings.HasPrefix(k, "vet.") && k != "vet.s" {
				out[k] = v
				continue
			}
			out[k] += v
		}
	}
	return out
}

// child runs one child process and returns its result and peak RSS in MB.
func (r *runner) child(w, phase, cacheDir string, traced bool) (*childResult, float64, error) {
	args := []string{"child", "--workload", w, "--phase", phase,
		"--seed", strconv.FormatInt(r.seed, 10), "--traced=" + strconv.FormatBool(traced)}
	if cacheDir != "" {
		args = append(args, "--cache-dir", cacheDir)
	}
	cmd := exec.CommandContext(r.ctx, r.exe, args...)
	// A child must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, r.stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", phase, err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, 0, fmt.Errorf("%s child output: %w", phase, err)
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return &res, rss, nil
}

// cpuTimes is the aggregate "cpu" line of /proc/stat.
type cpuTimes struct{ total, steal float64 }

func readSteal() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var t cpuTimes
	if len(f) < 9 || f[0] != "cpu" {
		return t
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		// user nice system idle iowait irq softirq steal guest guest_nice;
		// guest time is already counted in user and nice.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func (now cpuTimes) shareSince(then cpuTimes) float64 {
	d := now.total - then.total
	if d <= 0 {
		return 0
	}
	return (now.steal - then.steal) / d
}

// printAttribution writes where a traced round's time went, layer by layer.
func printAttribution(w io.Writer, workload string, vals map[string]float64) {
	fmt.Fprintf(w, "agbench: %s traced round, median self time by layer:\n", workload)
	var keys []string
	for _, d := range perLayer {
		if layerSelf[d.name] && vals[d.name] > 0 {
			keys = append(keys, d.name)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return vals[keys[i]] > vals[keys[j]] })
	for _, k := range keys {
		fmt.Fprintf(w, "  %-22s %9.4f s\n", k, vals[k])
	}
	fmt.Fprintf(w, "  attributed: %.1f%% of the traced round\n", 100*vals["trace.attributed_share"])
}

// layerSelf marks the per-layer metrics that are self times; they add up
// to the attributed share.
var layerSelf = map[string]bool{
	"ts.build_s": true, "ts.product_s": true, "check.safety_s": true, "check.liveness_s": true,
	"cache.load_s": true, "cache.store_s": true, "vet.s": true, "queue.instance_s": true, "ag.self_s": true,
}

// printTable writes a human-readable table of a multi-workload run.
func printTable(w io.Writer, names []string, ms map[string]metricValue, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "%-26s", "metric")
	for _, n := range names {
		fmt.Fprintf(w, " %16s", n)
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		fmt.Fprintf(w, "%-26s", d.name+" ("+d.unit+")")
		for _, n := range names {
			fmt.Fprintf(w, " %16.6g", ms[n+"."+d.name].Value)
		}
		fmt.Fprintln(w)
	}
}
