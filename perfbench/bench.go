package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"
)

// Metric names one reported figure and its unit. Exact metrics are
// deterministic counts or ratios of counts: they must repeat bit for bit
// across runs with the same seed and at any worker count.
type Metric struct {
	Name  string
	Unit  string
	Exact bool
}

// endToEnd are the figures a user of the router sees, reported with
// tracing off. Every workload reports every one of them.
var endToEnd = []Metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "route_s", Unit: "s"},
	{Name: "designs_per_s", Unit: "1/s"},
	{Name: "design_ms_p50", Unit: "ms"},
	{Name: "design_ms_p95", Unit: "ms"},
	{Name: "jobs_per_s", Unit: "1/s"},
	{Name: "job_ms_p50", Unit: "ms"},
	{Name: "job_ms_p95", Unit: "ms"},
	{Name: "routed_pct", Unit: "%", Exact: true},
	{Name: "detour_ratio", Unit: "ratio", Exact: true},
	{Name: "alloc_mb", Unit: "MB"},
	{Name: "peak_rss_mb", Unit: "MB"},
}

// perLayer are the figures of single layers, reported by a traced run.
var perLayer = []Metric{
	{Name: "stage.preprocess_ms", Unit: "ms"},
	{Name: "stage.concurrent_ms", Unit: "ms"},
	{Name: "stage.graph_ms", Unit: "ms"},
	{Name: "stage.sequential_ms", Unit: "ms"},
	{Name: "stage.lp_ms", Unit: "ms"},
	{Name: "route.other_ms", Unit: "ms"},
	{Name: "route.traced_ms", Unit: "ms"},
	{Name: "seq.nets", Unit: "count", Exact: true},
	{Name: "seq.corridor_nets", Unit: "count", Exact: true},
	{Name: "seq.fallback_nets", Unit: "count", Exact: true},
	{Name: "seq.failed_nets", Unit: "count", Exact: true},
	{Name: "seq.corridor_hit_ratio", Unit: "ratio", Exact: true},
	{Name: "seq.corridor_net_ms", Unit: "ms"},
	{Name: "seq.fallback_net_ms", Unit: "ms"},
	{Name: "seq.failed_net_ms", Unit: "ms"},
	{Name: "seq.fallback_search_ms", Unit: "ms"},
	{Name: "astar.searches", Unit: "count", Exact: true},
	{Name: "astar.failures", Unit: "count", Exact: true},
	{Name: "astar.expanded_total", Unit: "count", Exact: true},
	{Name: "astar.expanded_p50", Unit: "count", Exact: true},
	{Name: "astar.expanded_p95", Unit: "count", Exact: true},
	{Name: "astar.fallback_expanded", Unit: "count", Exact: true},
	{Name: "mpsc.chords_considered", Unit: "count", Exact: true},
	{Name: "mpsc.chords_picked", Unit: "count", Exact: true},
	{Name: "concurrent.routed_nets", Unit: "count", Exact: true},
	{Name: "ctile.tiles", Unit: "count", Exact: true},
	{Name: "ctile.via_sites", Unit: "count", Exact: true},
	{Name: "lp.iterations", Unit: "count", Exact: true},
	{Name: "lp.components", Unit: "count", Exact: true},
	{Name: "quality.routed_nets", Unit: "count", Exact: true},
	{Name: "quality.total_nets", Unit: "count", Exact: true},
	{Name: "inputs.generate_ms", Unit: "ms"},
	{Name: "codec.encode_ms", Unit: "ms"},
	{Name: "codec.decode_ms", Unit: "ms"},
	{Name: "drc.check_ms", Unit: "ms"},
	{Name: "http.submit_ms_p50", Unit: "ms"},
	{Name: "http.result_ms_p50", Unit: "ms"},
	{Name: "serve.queue_ms_p50", Unit: "ms"},
	{Name: "serve.miss_run_ms_p50", Unit: "ms"},
	{Name: "serve.hit_run_ms_p50", Unit: "ms"},
	{Name: "serve.delta_run_ms_p50", Unit: "ms"},
	{Name: "serve.cache_hits", Unit: "count", Exact: true},
	{Name: "serve.cache_misses", Unit: "count", Exact: true},
	{Name: "serve.cache_bytes", Unit: "bytes"},
	{Name: "trace.overhead_ratio", Unit: "ratio"},
}

// Config selects and sizes one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	Seconds  time.Duration // timed region; at least one unit always runs
	Trace    bool
	Workers  int // router Options.Workers of in-process routes (0 = GOMAXPROCS)

	Circuit     string // dense4-cold: the Table-I circuit routed
	Designs     int    // irregular-batch: designs per unit
	ServeJobs   int    // serve-mix: jobs per client per pass (a multiple of 4)
	ServeGroups int    // serve-mix: passes per unit, each with its own designs
	SetupReps   int    // set-ups per run; setup_s is their median
}

// DefaultConfig returns the sizes the repository benchmark runs at.
func DefaultConfig(workload string, seed int64) Config {
	return Config{
		Workload: workload, Seed: seed, Seconds: 35 * time.Second,
		Circuit: "dense4", Designs: 200, ServeJobs: 20, ServeGroups: 4, SetupReps: 5,
	}
}

// Workloads lists the workload names.
var Workloads = []string{"dense4-cold", "irregular-batch", "serve-mix"}

// workload is one benchmark workload. A unit covers every input once and
// consists of passes() passes; the runner repeats units until the time
// is up and compares every unit's results with the first unit's.
type workload interface {
	// setup builds the inputs from the seed, replacing any earlier set,
	// and reports how long generating the designs took.
	setup(ctx context.Context) (time.Duration, error)
	// inputs lists the generated designs' content hashes.
	inputs() []InputDigest
	passes() int
	// run runs pass k of a unit; tr is nil for an untraced pass.
	run(ctx context.Context, k int, tr *Tracer) (*pass, error)
}

// pass is what one pass measured and checked.
type pass struct {
	busy       time.Duration // time spent on the pass's jobs; route_s sums it per unit
	plainBusy  time.Duration // traced passes: the same jobs run untraced just before
	allocBytes float64       // bytes allocated by the jobs
	designMs   []float64     // one router run each
	jobMs      []float64     // one job each: a routed, encoded result
	attempted  int
	failed     int
	routed     int
	total      int
	wl, lb     float64  // routed wirelength and its octilinear lower bound
	digests    []string // one per input slot, compared across units
	problems   []string // results that failed verification
	failures   []string // jobs that did not complete
}

// InputDigest identifies one generated design.
type InputDigest struct {
	Name string `json:"name"`
	Hash string `json:"hash"`
}

// Report is the outcome of one run.
type Report struct {
	Correct    bool
	Attempted  int
	Failed     int
	Metrics    map[string]float64 // every end-to-end and per-layer metric computed
	Problems   []string           // results that failed verification
	Failures   []string           // jobs that did not complete
	Inputs     []InputDigest
	UnitBusy   []float64 // seconds each unit spent on its jobs, in run order, not calibrated
	UnitScale  []float64 // each unit's calibration factor
	Setups     []float64 // seconds each set-up took, not calibrated
	SetupScale float64   // the set-ups' calibration factor
}

func newWorkload(cfg Config) (workload, error) {
	switch cfg.Workload {
	case "dense4-cold":
		return &denseCold{cfg: cfg}, nil
	case "irregular-batch":
		return &batch{cfg: cfg}, nil
	case "serve-mix":
		if cfg.ServeJobs < 4 || cfg.ServeJobs%4 != 0 {
			return nil, fmt.Errorf("serve-mix: jobs per client %d is not a positive multiple of 4", cfg.ServeJobs)
		}
		return &serveMix{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.Workload, Workloads)
}

// allocated returns the bytes the process has allocated so far.
func allocated() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// peakRSS returns the process's peak resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

type unit struct {
	passes []*pass
	wall   time.Duration
	scale  float64 // calibration factor of the unit's times
	tr     *Tracer
}

// Run sets the workload up SetupReps times, then runs units until the
// timed region is spent: one more unit starts only while the last unit's
// duration still fits. A calibrator samples the host's speed throughout;
// the set-ups are calibrated together, each unit by the samples taken
// while it ran (see calib.go). In a traced run every unit is traced, and
// every traced job or pass is preceded by the same work untraced, so the
// tracing overhead is measured in pairs a few seconds apart. The traces
// are returned for writing out.
func Run(ctx context.Context, cfg Config) (*Report, []*Tracer, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, nil, err
	}
	cal := startCalibrator()
	defer cal.stop()
	var setups, gens []float64
	s0 := time.Now()
	for i := 0; i < max(1, cfg.SetupReps); i++ {
		t0 := time.Now()
		gen, err := w.setup(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", cfg.Workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, float64(gen.Nanoseconds())/1e6)
	}
	setupScale := cal.scale(s0, time.Now())

	var units []unit
	start := time.Now()
	for {
		u := unit{}
		if cfg.Trace {
			u.tr = NewTracer()
		}
		t0 := time.Now()
		for k := 0; k < w.passes(); k++ {
			p, err := w.run(ctx, k, u.tr)
			if err != nil {
				return nil, nil, fmt.Errorf("%s pass %d: %w", cfg.Workload, k, err)
			}
			u.passes = append(u.passes, p)
		}
		u.wall = time.Since(t0)
		u.scale = cal.scale(t0, t0.Add(u.wall))
		units = append(units, u)
		if time.Since(start)+u.wall > cfg.Seconds {
			break
		}
	}
	rep := summarize(cfg, units, setups, setupScale)
	if cfg.Trace {
		rep.Metrics["inputs.generate_ms"] = median(gens)
	}
	rep.Inputs = w.inputs()
	var traces []*Tracer
	if cfg.Trace {
		for _, u := range units {
			traces = append(traces, u.tr)
		}
	}
	return rep, traces, nil
}

// summarize turns the measured units into the report — the end-to-end
// figures, whose times are calibrated unit by unit, and in a traced run
// the per-layer ones, which are not calibrated (its end-to-end figures
// include tracing and are not printed) — and a correctness verdict that
// also requires every unit to reproduce the first unit's results exactly.
func summarize(cfg Config, units []unit, setups []float64, setupScale float64) *Report {
	rep := &Report{Metrics: map[string]float64{}, Setups: setups, SetupScale: setupScale}
	var busy, rawBusy, allocs, designMs, jobMs []float64
	plain := 0.0
	first := units[0].passes
	for ui, u := range units {
		unitBusy, unitAlloc := 0.0, 0.0
		for k, p := range u.passes {
			rep.Attempted += p.attempted
			rep.Failed += p.failed
			rep.Problems = append(rep.Problems, p.problems...)
			rep.Failures = append(rep.Failures, p.failures...)
			if !sameResults(p.digests, first[k].digests) {
				rep.Problems = append(rep.Problems, fmt.Sprintf(
					"unit %d pass %d: results differ from unit 0 (routing is not deterministic)", ui, k))
			}
			unitBusy += p.busy.Seconds()
			unitAlloc += p.allocBytes
			plain += p.plainBusy.Seconds()
			for _, v := range p.designMs {
				designMs = append(designMs, v*u.scale)
			}
			for _, v := range p.jobMs {
				jobMs = append(jobMs, v*u.scale)
			}
		}
		busy = append(busy, unitBusy*u.scale)
		rawBusy = append(rawBusy, unitBusy)
		allocs = append(allocs, unitAlloc)
		rep.UnitScale = append(rep.UnitScale, u.scale)
	}
	rep.UnitBusy = rawBusy

	routed, total, wl, lb := 0, 0, 0.0, 0.0
	for _, p := range first {
		routed += p.routed
		total += p.total
		wl += p.wl
		lb += p.lb
	}
	m := rep.Metrics
	m["setup_s"] = median(setups) * setupScale
	m["route_s"] = median(busy)
	m["designs_per_s"] = float64(len(designMs)) / sum(busy)
	m["design_ms_p50"] = percentile(designMs, 50)
	m["design_ms_p95"] = percentile(designMs, 95)
	m["jobs_per_s"] = float64(len(jobMs)) / sum(busy)
	m["job_ms_p50"] = percentile(jobMs, 50)
	m["job_ms_p95"] = percentile(jobMs, 95)
	if total > 0 {
		m["routed_pct"] = 100 * float64(routed) / float64(total)
	}
	if lb > 0 {
		m["detour_ratio"] = wl / lb
	}
	m["alloc_mb"] = median(allocs) / 1e6
	m["peak_rss_mb"] = peakRSS() / 1e6

	if cfg.Trace {
		layerMetrics(rep, units)
		m["quality.routed_nets"] = float64(routed)
		m["quality.total_nets"] = float64(total)
		m["trace.overhead_ratio"] = sum(rawBusy) / plain
	}
	rep.Correct = len(rep.Problems) == 0
	return rep
}

// layerMetrics analyzes every traced unit; counts must agree exactly
// across units, times are reported as the median over units.
func layerMetrics(rep *Report, units []unit) {
	var per []map[string]float64
	for _, u := range units {
		per = append(per, analyze(u.tr.Records()))
	}
	for _, m := range perLayer {
		var vals []float64
		for _, p := range per {
			vals = append(vals, p[m.Name])
		}
		if m.Exact {
			for i, v := range vals {
				if v != vals[0] {
					rep.Problems = append(rep.Problems, fmt.Sprintf(
						"%s differs across traced units: %v vs %v (unit %d)", m.Name, vals[0], v, i))
				}
			}
		}
		rep.Metrics[m.Name] = median(vals)
	}
}

// sameResults compares two passes' result digests slot by slot; a slot
// whose job failed in either pass holds "" and is not compared.
func sameResults(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != "" && b[i] != "" && a[i] != b[i] {
			return false
		}
	}
	return true
}
