package obs

import (
	"bytes"
	"flag"
	"strings"
	"testing"
	"time"

	"opentla/internal/engine"
	"opentla/internal/metrics"
	"opentla/internal/trace"
)

// TestFlagsValidate pins the -progress-interval contract: positive passes,
// zero and negative are rejected.
func TestFlagsValidate(t *testing.T) {
	cases := []struct {
		interval time.Duration
		ok       bool
	}{
		{time.Second, true},
		{time.Millisecond, true},
		{0, false},
		{-time.Second, false},
	}
	for _, tc := range cases {
		f := &Flags{ProgressInterval: tc.interval}
		err := f.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate with interval %v: err=%v, want ok=%v", tc.interval, err, tc.ok)
		}
	}
}

func TestFlagsEnabledIncludesTelemetry(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    Flags
		want bool
	}{
		{"off", Flags{ProgressInterval: time.Second}, false},
		{"progress", Flags{Progress: true, ProgressInterval: time.Second}, true},
		{"trace", Flags{Trace: "t.json", ProgressInterval: time.Second}, true},
		{"metrics", Flags{MetricsOut: "m.prom", ProgressInterval: time.Second}, true},
	} {
		if got := tc.f.Enabled(); got != tc.want {
			t.Errorf("%s: Enabled()=%v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestProgressPeriod(t *testing.T) {
	f := Flags{Progress: false, ProgressInterval: 5 * time.Second}
	if f.ProgressPeriod() != 0 {
		t.Fatalf("disabled progress must yield period 0")
	}
	f.Progress = true
	if f.ProgressPeriod() != 5*time.Second {
		t.Fatalf("enabled progress must yield the configured interval")
	}
}

// TestAddFlagsDefaults checks the registered defaults: progress off,
// interval 1s, no trace/metrics outputs.
func TestAddFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Progress || f.ProgressInterval != time.Second || f.Trace != "" || f.MetricsOut != "" {
		t.Fatalf("unexpected defaults: %+v", f)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
}

// TestTelemetryAttachment checks the Flags.Telemetry wiring: -trace attaches
// both sinks (a timeline without its counters is half a story),
// -metrics-out alone attaches only a registry, and the meter-side discovery
// hooks (trace.FromMeter / metrics.FromMeter) see exactly what was attached.
func TestTelemetryAttachment(t *testing.T) {
	m := engine.NoLimit()
	rec := New(m)
	f := &Flags{Trace: "out.json", ProgressInterval: time.Second}
	tr, reg := f.Telemetry(rec)
	if tr == nil || reg == nil {
		t.Fatalf("-trace must attach tracer and registry, got %v/%v", tr, reg)
	}
	if trace.FromMeter(m) != tr || metrics.FromMeter(m) != reg {
		t.Fatalf("FromMeter discovery must return the attached sinks")
	}

	m2 := engine.NoLimit()
	rec2 := New(m2)
	f2 := &Flags{MetricsOut: "m.prom", ProgressInterval: time.Second}
	tr2, reg2 := f2.Telemetry(rec2)
	if tr2 != nil || reg2 == nil {
		t.Fatalf("-metrics-out alone must attach only a registry, got %v/%v", tr2, reg2)
	}
	if trace.FromMeter(m2) != nil {
		t.Fatalf("no tracer was attached; FromMeter must return nil")
	}

	// No recorder: nothing to attach to.
	if tr3, reg3 := f.Telemetry(nil); tr3 != nil || reg3 != nil {
		t.Fatalf("nil recorder must yield nil sinks")
	}
}

// TestSpanEmitsPhaseSlice checks that closing a recorder span mirrors it
// onto the tracer's "phases" track.
func TestSpanEmitsPhaseSlice(t *testing.T) {
	m := engine.NoLimit()
	rec := New(m)
	tr := trace.New()
	rec.SetTracer(tr)
	end := rec.Span("build:demo")
	end()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"build:demo"`) || !strings.Contains(out, `"phases"`) {
		t.Fatalf("trace missing phase slice for closed span:\n%s", out)
	}
}

// TestFinishIncludesMetricsSection checks the schema-6 metrics section:
// present (and sorted) with a registry, absent without.
func TestFinishIncludesMetricsSection(t *testing.T) {
	m := engine.NoLimit()
	rec := New(m)
	reg := metrics.NewRegistry()
	reg.Counter("b_total", "").Add(2)
	reg.Counter("a_total", "").Add(1)
	rec.SetMetrics(reg)
	rep := rec.Finish("test", Config{}, engine.Holds, "")
	if rep.SchemaVersion != 8 {
		t.Fatalf("schema_version = %d, want 8", rep.SchemaVersion)
	}
	if len(rep.Metrics) != 2 || rep.Metrics[0].Name != "a_total" || rep.Metrics[1].Name != "b_total" {
		t.Fatalf("metrics section wrong: %+v", rep.Metrics)
	}

	m2 := engine.NoLimit()
	rep2 := New(m2).Finish("test", Config{}, engine.Holds, "")
	if rep2.Metrics != nil {
		t.Fatalf("metrics section must be absent without a registry")
	}
}
