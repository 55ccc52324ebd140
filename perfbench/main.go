// Command perfbench is the repository benchmark. It runs one workload
// in-process for a fixed time, checks every result, and prints every
// metric by name with its unit; the last line of its output is one JSON
// object. See README.md for the workloads, the metrics and how to take a
// traced run.
//
//	perfbench --workload dense4-cold --seed 1 --seconds 35 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	cfg := DefaultConfig("", 1)
	var seconds, trace int
	var traceDir string
	flag.StringVar(&cfg.Workload, "workload", "", "workload: "+strings.Join(Workloads, ", "))
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 35, "length of the timed region in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.StringVar(&traceDir, "trace-dir", ".bench_build/traces", "directory a traced run writes its records to")
	flag.Parse()
	if flag.NArg() > 0 || seconds < 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.Seconds = time.Duration(seconds) * time.Second
	cfg.Trace = trace == 1

	rep, traces, err := Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if cfg.Trace {
		if err := writeTraces(traceDir, cfg, traces); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	for _, s := range rep.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed job:", s)
	}
	for _, s := range rep.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect result:", s)
	}
	if err := printReport(os.Stdout, cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// Env identifies the machine and the code a run measured.
type Env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`        // git HEAD when run from a git checkout, else "none"
	Source     string `json:"source_sha256"` // digest of the repository's Go sources
}

func environment() Env {
	return Env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitHead("."),
		Source:     sourceDigest("."),
	}
}

// gitHead reads the commit HEAD names from root/.git, or "none".
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "none"
}

// sourceDigest hashes every go.mod and .go file under root, skipping
// hidden directories, in path order: two runs of the same code agree on
// it whether or not they run from a git checkout.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && p != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(p, ".go") || e.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unreadable"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// printReport writes the run's header, environment and input digests, a
// readable metric table, and last the result object: the end-to-end
// metrics, or the per-layer metrics of a traced run.
func printReport(w io.Writer, cfg Config, rep *Report) error {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%.0f trace=%v units=%d\n",
		cfg.Workload, cfg.Seed, cfg.Seconds.Seconds(), cfg.Trace, len(rep.UnitBusy))
	fmt.Fprintf(w, "uncalibrated unit_busy_s=%.4g unit_scale=%.4g setup_s=%.4g setup_scale=%.4g\n",
		rep.UnitBusy, rep.UnitScale, rep.Setups, rep.SetupScale)
	env, err := json.Marshal(environment())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env %s\n", env)
	h := sha256.New()
	for _, in := range rep.Inputs {
		fmt.Fprintf(h, "%s %s\n", in.Name, in.Hash)
	}
	inputs, err := json.Marshal(map[string]any{
		"seed": cfg.Seed, "schedule_seed": cfg.Seed, "digest": hex.EncodeToString(h.Sum(nil)),
		"designs": rep.Inputs,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "inputs %s\n", inputs)

	set := endToEnd
	if cfg.Trace {
		set = perLayer
	}
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]metricOut{}}
	for _, m := range set {
		v := rep.Metrics[m.Name]
		fmt.Fprintf(w, "  %-26s %16.6f %s\n", m.Name, v, m.Unit)
		line.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// writeTraces writes the records of every traced unit to one JSONL file.
func writeTraces(dir string, cfg Config, traces []*Tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, tr := range traces {
		if err := tr.WriteJSONL(f); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
