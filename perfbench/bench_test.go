package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload to a few seconds: dense1 instead of dense4,
// four batch designs, one serve group of four jobs per client, one unit.
func tiny(workload string) Config {
	cfg := DefaultConfig(workload, 3)
	cfg.Seconds = 0
	cfg.Circuit = "dense1"
	cfg.Designs = 4
	cfg.ServeJobs = 4
	cfg.ServeGroups = 1
	cfg.SetupReps = 1
	return cfg
}

type benchFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json to the workloads
// and metric tables the program reports.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchFile(t)
	if len(bf.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(Workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, Workloads[i])
		}
	}
	for _, c := range []struct {
		what string
		file []struct{ Name, Unit string }
		prog []Metric
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.what, len(c.file), len(c.prog))
		}
		for i, m := range c.file {
			if m.Name != c.prog[i].Name || m.Unit != c.prog[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					c.what, i, m.Name, m.Unit, c.prog[i].Name, c.prog[i].Unit)
			}
		}
	}
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, _, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d problems=%v failures=%v",
			cfg.Workload, rep.Correct, rep.Attempted, rep.Failed, rep.Problems, rep.Failures)
	}
	return rep
}

// TestEveryMetricPrinted runs each workload tiny, untraced and traced,
// and checks the result line names every metric of BENCHMARK.json with
// its unit, that end-to-end figures are never 0, and that the stage
// spans plus route.other_ms account for the traced route time.
func TestEveryMetricPrinted(t *testing.T) {
	bf := readBenchFile(t)
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			cfg := tiny(w)
			cfg.Trace = traced
			rep := mustRun(t, cfg)
			var out bytes.Buffer
			if err := printReport(&out, cfg, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w, err)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not printed", w, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w, traced, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
			if !traced {
				continue
			}
			m := rep.Metrics
			stages := m["stage.preprocess_ms"] + m["stage.concurrent_ms"] + m["stage.graph_ms"] +
				m["stage.sequential_ms"] + m["stage.lp_ms"] + m["route.other_ms"]
			if route := m["route.traced_ms"]; route <= 0 || math.Abs(stages-route) > 1e-6*route {
				t.Errorf("%s: stages + route.other_ms = %v ms, traced route time %v ms", w, stages, route)
			}
			if n := m["seq.corridor_nets"] + m["seq.fallback_nets"] + m["seq.failed_nets"]; n != m["seq.nets"] || n == 0 {
				t.Errorf("%s: stage-4 outcomes %v do not add up to seq.nets %v", w, n, m["seq.nets"])
			}
			split := m["seq.corridor_net_ms"] + m["seq.fallback_net_ms"] + m["seq.failed_net_ms"]
			if split <= 0 || split > m["stage.sequential_ms"] {
				t.Errorf("%s: per-net stage-4 time %v ms outside (0, %v]", w, split, m["stage.sequential_ms"])
			}
			if r := m["trace.overhead_ratio"]; r <= 0 {
				t.Errorf("%s: trace.overhead_ratio = %v", w, r)
			}
		}
	}
}

// TestExactMetricsRepeat runs each workload tiny and traced three times —
// twice at the default worker count and once at Workers 1 — and requires
// every exact metric to repeat bit for bit.
func TestExactMetricsRepeat(t *testing.T) {
	var exact []Metric
	for _, m := range append(append([]Metric(nil), endToEnd...), perLayer...) {
		if m.Exact {
			exact = append(exact, m)
		}
	}
	for _, w := range Workloads {
		var reps []*Report
		for _, workers := range []int{0, 0, 1} {
			cfg := tiny(w)
			cfg.Trace = true
			cfg.Workers = workers
			reps = append(reps, mustRun(t, cfg))
		}
		for _, m := range exact {
			a := reps[0].Metrics[m.Name]
			for i, r := range reps[1:] {
				if b := r.Metrics[m.Name]; b != a {
					t.Errorf("%s: %s = %v in run 0, %v in run %d", w, m.Name, a, b, i+1)
				}
			}
		}
		if reps[0].Metrics["quality.routed_nets"] == 0 {
			t.Errorf("%s: nothing routed", w)
		}
	}
}

// TestStage4Split feeds the splitter a hand-built stage:sequential span:
// a corridor net, a net whose corridor attempt failed before the
// fallback succeeded, and a net that failed outright.
func TestStage4Split(t *testing.T) {
	ev := func(ms float64, mode, outcome string) Record {
		return Record{Kind: "event", Name: "net.route", Op: 1, Ms: ms,
			Attrs: map[string]any{"stage": "sequential", "mode": mode, "outcome": outcome}}
	}
	obsAt := func(ms, expanded float64) Record {
		return Record{Kind: "observe", Name: "astar.expanded", Op: 1, Ms: ms, V: expanded}
	}
	fail := func(ms float64) Record { return Record{Kind: "count", Name: "astar.failures", Op: 1, Ms: ms, V: 1} }
	recs := []Record{
		{Kind: "op", Name: "job", Op: 1, Ms: 0, DurMs: 100},
		{Kind: "span", Name: "bench:route", Op: 1, Ms: 0, DurMs: 100},
		obsAt(12, 100), ev(15, "corridor", "routed"),
		fail(20), obsAt(20, 50), obsAt(40, 900), ev(41, "fallback", "routed"),
		fail(50), obsAt(50, 30), fail(70), obsAt(70, 700), ev(71, "fallback", "failed"),
		{Kind: "span", Name: "stage:sequential", Op: 1, Ms: 10, DurMs: 65},
	}
	m := analyze(recs)
	want := map[string]float64{
		"seq.nets": 3, "seq.corridor_nets": 1, "seq.fallback_nets": 1, "seq.failed_nets": 1,
		"seq.corridor_net_ms": 5, "seq.fallback_net_ms": 26, "seq.failed_net_ms": 30,
		"seq.fallback_search_ms": 20 + 20, "astar.searches": 5, "astar.failures": 3,
		"astar.expanded_total": 1780, "astar.fallback_expanded": 1600, "astar.expanded_p50": 100,
		"stage.sequential_ms": 65, "route.traced_ms": 100, "route.other_ms": 35,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	if got := m["seq.corridor_hit_ratio"]; math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("seq.corridor_hit_ratio = %v, want 1/3", got)
	}
}

// TestCalibrationWindow checks that a unit is calibrated by the median
// sample taken while it ran, and that a window too short to hold refMin
// samples borrows the samples nearest to it.
func TestCalibrationWindow(t *testing.T) {
	t0 := time.Now()
	c := &calibrator{}
	for i, slow := range []float64{1, 1, 1, 1, 1, 2, 2, 4, 2, 2, 1, 1} {
		c.samples = append(c.samples, refSample{at: t0.Add(time.Duration(i) * time.Second), cpu: slow * refNominal.Seconds()})
	}
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	for _, tc := range []struct {
		from, to float64
		want     float64
	}{
		{0, 4, 1},       // five calm samples
		{5, 9, 0.5},     // a slow period; the 36 ms outlier does not move the median
		{7.5, 7.5, 0.5}, // no sample inside: the five nearest, 18 18 36 18 18
		{-3, -2, 1},     // before the first sample: the first five
	} {
		if got := c.scale(at(tc.from), at(tc.to)); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("scale over [%v s, %v s] = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}
