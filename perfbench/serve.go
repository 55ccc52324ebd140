package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"rdlroute/internal/codec"
	"rdlroute/internal/design"
	"rdlroute/internal/eco"
	"rdlroute/internal/metrics"
	"rdlroute/internal/obs"
	"rdlroute/internal/qa"
	"rdlroute/internal/serve"
)

const (
	serveClients = 2
	// jobTimeoutMS is the per-job deadline a client asks for; a job that
	// runs into it fails instead of stalling the run.
	jobTimeoutMS = 30000
	// poolSeed is the qa seed of the first design in the fixed pool of
	// fresh designs.
	poolSeed = 500
)

// serveJob is one scheduled request of a client.
type serveJob struct {
	kind   string // "miss": a fresh design; "hit": a resubmission; "delta": a remove_nets delta
	body   []byte // the rdl-job/v1 POST body
	design *design.Design
	ref    int // hit: the client's earlier job whose result it must equal
}

// serveMix runs closed-loop clients against an in-process serve.Server
// behind loopback HTTP. Pass k of a unit boots a fresh server and plays
// schedule group k, so every pass starts from an empty result cache and
// its hits and misses are the same in every unit.
type serveMix struct {
	cfg    Config
	groups [][serveClients][]serveJob
	in     []InputDigest
}

type jobDoc struct {
	Schema    string          `json:"schema"`
	Design    json.RawMessage `json:"design,omitempty"`
	Delta     json.RawMessage `json:"delta,omitempty"`
	TimeoutMS int             `json:"timeout_ms"`
}

// jobView is the subset of the GET /v1/jobs/{id} body the clients read.
type jobView struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Error     string          `json:"error"`
	RuntimeMS float64         `json:"runtime_ms"`
	Result    json.RawMessage `json:"result"`
}

func designBody(d *design.Design) ([]byte, error) {
	var buf bytes.Buffer
	if err := codec.EncodeDesign(&buf, d); err != nil {
		return nil, err
	}
	return json.Marshal(jobDoc{Schema: serve.JobSchema, Design: buf.Bytes(), TimeoutMS: jobTimeoutMS})
}

func (w *serveMix) passes() int           { return w.cfg.ServeGroups }
func (w *serveMix) inputs() []InputDigest { return w.in }

// setup draws each client's schedule from the seed: half fresh designs
// (cache misses), a quarter resubmissions of a design the client already
// routed (cache hits), a quarter single-net remove_nets deltas against
// such a design. The fresh designs are a fixed pool of qa designs, and
// each pool design has a fixed follow-up: the even ones are resubmitted
// once, the odd ones get one delta. The seed deals the designs out over
// passes and clients, orders each client's jobs (a follow-up comes after
// its design, so the first job is always fresh) and picks the net each
// delta removes. Every seed's unit therefore carries the same jobs, and
// its times measure the serving path rather than the draw: when the seed
// chose the follow-ups, the cheap hits and the costly deltas fell on
// different designs, and the median job time differed by up to 19%
// between seeds. It then boots a server and routes one warm-up job
// through it.
func (w *serveMix) setup(ctx context.Context) (time.Duration, error) {
	if w.cfg.ServeGroups < 1 {
		return 0, fmt.Errorf("serve-mix: %d groups", w.cfg.ServeGroups)
	}
	rng := rand.New(rand.NewSource(w.cfg.Seed))
	fresh := w.cfg.ServeJobs / 2 // fresh designs per client and pass
	var even, odd []int
	for _, p := range rng.Perm(w.cfg.ServeGroups * serveClients * fresh) {
		if p%2 == 0 {
			even = append(even, p)
		} else {
			odd = append(odd, p)
		}
	}
	var gen time.Duration
	w.groups = make([][serveClients][]serveJob, w.cfg.ServeGroups)
	w.in = w.in[:0]
	for g := range w.groups {
		for c := 0; c < serveClients; c++ {
			picks := append(append([]int(nil), even[:fresh/2]...), odd[:fresh/2]...)
			even, odd = even[fresh/2:], odd[fresh/2:]
			type slot struct {
				key   float64
				pick  int // position in picks of the design
				fresh bool
			}
			var order []slot
			for i := range picks {
				k := rng.Float64()
				order = append(order, slot{key: k, pick: i, fresh: true},
					slot{key: k + (1-k)*(1-rng.Float64()), pick: i})
			}
			sort.Slice(order, func(i, j int) bool { return order[i].key < order[j].key })
			var jobs []serveJob
			at := make([]int, len(picks)) // each design's fresh job
			for _, o := range order {
				p := picks[o.pick]
				switch {
				case o.fresh:
					t0 := time.Now()
					d := qa.Generate(poolSeed + int64(p))
					gen += time.Since(t0)
					body, err := designBody(d)
					if err != nil {
						return 0, err
					}
					at[o.pick] = len(jobs)
					jobs = append(jobs, serveJob{kind: "miss", body: body, design: d})
				case p%2 == 0:
					ref := at[o.pick]
					jobs = append(jobs, serveJob{kind: "hit", body: jobs[ref].body, design: jobs[ref].design, ref: ref})
				default:
					j, err := delta(rng, jobs[at[o.pick]].design)
					if err != nil {
						return 0, err
					}
					jobs = append(jobs, j)
				}
			}
			for _, j := range jobs {
				if j.kind == "hit" {
					continue
				}
				dg, err := digestOf(j.design)
				if err != nil {
					return 0, err
				}
				w.in = append(w.in, dg)
			}
			w.groups[g][c] = jobs
		}
	}

	wd, err := warmUpDesign()
	if err != nil {
		return 0, err
	}
	warm, err := designBody(wd)
	if err != nil {
		return 0, err
	}
	b, err := boot()
	if err != nil {
		return 0, err
	}
	defer b.close()
	if _, err := b.do(ctx, warm, false); err != nil {
		return 0, fmt.Errorf("warm-up job: %w", err)
	}
	return gen, nil
}

// delta draws a single-net remove_nets delta against base.
func delta(rng *rand.Rand, base *design.Design) (serveJob, error) {
	if len(base.Nets) == 0 {
		return serveJob{}, fmt.Errorf("serve-mix: %s has no net to remove", base.Name)
	}
	h, err := codec.DesignHash(base)
	if err != nil {
		return serveJob{}, err
	}
	dl := &eco.Delta{Base: h, RemoveNets: []int{rng.Intn(len(base.Nets))}}
	d, err := eco.Apply(base, dl)
	if err != nil {
		return serveJob{}, fmt.Errorf("delta on %s: %w", base.Name, err)
	}
	var buf bytes.Buffer
	if err := codec.EncodeDesignDelta(&buf, dl); err != nil {
		return serveJob{}, err
	}
	body, err := json.Marshal(jobDoc{Schema: serve.JobSchema, Delta: buf.Bytes(), TimeoutMS: jobTimeoutMS})
	if err != nil {
		return serveJob{}, err
	}
	return serveJob{kind: "delta", body: body, design: d}, nil
}

// booted is a server listening on loopback.
type booted struct {
	srv    *serve.Server
	http   *http.Server
	client *http.Client
	base   string
	served chan struct{}
}

// boot starts a server configured as the workload specifies: two
// workers, sequential routes, the default result cache.
func boot() (*booted, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Workers: 2, RouteWorkers: 1})
	b := &booted{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(b.served)
		b.http.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return b, nil
}

// close shuts the HTTP listener and the server down and waits for both.
// The clients have waited for every job, so a shutdown error can only
// report that the minute ran out while a job past its own deadline
// drained; it is dropped, as that job already counted as failed.
func (b *booted) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = b.http.Shutdown(ctx)
	<-b.served
	_ = b.srv.Shutdown(ctx)
	b.client.CloseIdleConnections()
}

func (b *booted) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// jobOut is what a client observed of one job.
type jobOut struct {
	view     jobView
	start    time.Time
	submitMs float64 // POST round trip
	resultMs float64 // final GET round trip
	totalMs  float64 // POST through the completed GET
	trace    []obs.Record
	err      error
}

// do runs one job: POST the body, wait for the job through the server's
// Wait, GET the finished job. With traced set it also fetches the job's
// trace stream, after the job's timing ends.
func (b *booted) do(ctx context.Context, body []byte, traced bool) (jobOut, error) {
	out := jobOut{start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return out, err
	}
	sub, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return out, fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(sub))
	}
	var v jobView
	if err := json.Unmarshal(sub, &v); err != nil {
		return out, fmt.Errorf("POST /v1/jobs: %w", err)
	}
	t1 := time.Now()
	out.submitMs = ms(t1.Sub(out.start))
	j, ok := b.srv.Job(v.ID)
	if !ok {
		return out, fmt.Errorf("job %s unknown to the server", v.ID)
	}
	wctx, cancel := context.WithTimeout(ctx, 2*jobTimeoutMS*time.Millisecond)
	err = b.srv.Wait(wctx, j)
	cancel()
	if err != nil {
		return out, fmt.Errorf("job %s: %w", v.ID, err)
	}
	t2 := time.Now()
	got, err := b.get(ctx, "/v1/jobs/"+v.ID)
	if err != nil {
		return out, err
	}
	t3 := time.Now()
	out.resultMs = ms(t3.Sub(t2))
	out.totalMs = ms(t3.Sub(out.start))
	if err := json.Unmarshal(got, &out.view); err != nil {
		return out, fmt.Errorf("job %s: %w", v.ID, err)
	}
	if out.view.State != string(serve.JobDone) {
		return out, fmt.Errorf("job %s ended %s: %s", v.ID, out.view.State, out.view.Error)
	}
	if traced {
		raw, err := b.get(ctx, "/v1/jobs/"+v.ID+"/trace")
		if err != nil {
			return out, err
		}
		if out.trace, err = obs.ReadJSONL(bytes.NewReader(raw)); err != nil {
			return out, fmt.Errorf("job %s trace: %w", v.ID, err)
		}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// play runs both clients' schedules of a group against b and returns
// what they observed, with the seconds the clients were busy and the
// bytes the process allocated meanwhile.
func play(ctx context.Context, b *booted, group [serveClients][]serveJob, traced bool) ([serveClients][]jobOut, time.Duration, float64) {
	var outs [serveClients][]jobOut
	var wg sync.WaitGroup
	a0 := allocated()
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, j := range group[c] {
				out, err := b.do(ctx, j.body, traced)
				out.err = err
				outs[c] = append(outs[c], out)
			}
		}(c)
	}
	wg.Wait()
	return outs, time.Since(t0), allocated() - a0
}

// run plays pass k on a fresh server. A traced pass is preceded by the
// same pass untraced on its own fresh server, whose time is the base of
// the tracing overhead.
func (w *serveMix) run(ctx context.Context, k int, tr *Tracer) (*pass, error) {
	group := w.groups[k]
	var plain time.Duration
	if tr != nil {
		b, err := boot()
		if err != nil {
			return nil, err
		}
		_, plain, _ = play(ctx, b, group, false)
		b.close()
	}
	b, err := boot()
	if err != nil {
		return nil, err
	}
	defer b.close()
	outs, busy, alloc := play(ctx, b, group, tr != nil)
	p := &pass{busy: busy, plainBusy: plain, allocBytes: alloc}

	var ops [serveClients][]int
	if tr != nil {
		if ops, err = w.record(ctx, b, group, outs, tr); err != nil {
			return nil, err
		}
	}
	for c := 0; c < serveClients; c++ {
		for i, j := range group[c] {
			out := outs[c][i]
			p.attempted++
			if out.err != nil {
				p.fail(out.err.Error())
				continue
			}
			p.jobMs = append(p.jobMs, out.totalMs)
			if j.kind != "hit" {
				p.designMs = append(p.designMs, out.view.RuntimeMS)
			}
			if j.kind == "hit" && !bytes.Equal(out.view.Result, outs[c][j.ref].view.Result) {
				p.wrong(fmt.Errorf("%s: cache hit returned bytes unlike the miss that filled the cache", j.design.Name))
				continue
			}
			op := 0
			if tr != nil {
				op = ops[c][i]
			}
			chk, err := checkResult(out.view.Result, j.design, w.cfg.Workers, tr, op)
			if err != nil {
				p.wrong(err)
				continue
			}
			if j.kind == "hit" {
				p.digests = append(p.digests, chk.digest)
			} else {
				p.account(chk)
			}
		}
	}
	return p, nil
}

// record adds the pass's jobs to the trace: one operation per job with
// its client-side timings and its flight record's queue and run times,
// the job's own trace stream attached, and the cache counters /metrics
// reports at the end of the pass. It returns each job's operation id.
func (w *serveMix) record(ctx context.Context, b *booted, group [serveClients][]serveJob, outs [serveClients][]jobOut, tr *Tracer) ([serveClients][]int, error) {
	var ops [serveClients][]int
	raw, err := b.get(ctx, "/v1/debug/jobs")
	if err != nil {
		return ops, err
	}
	var list struct {
		Jobs []serve.FlightRecord `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &list); err != nil {
		return ops, fmt.Errorf("flight records: %w", err)
	}
	flights := map[string]serve.FlightRecord{}
	for _, f := range list.Jobs {
		flights[f.ID] = f
	}
	for c := 0; c < serveClients; c++ {
		for i, j := range group[c] {
			out := outs[c][i]
			f, ok := flights[out.view.ID]
			if out.err != nil || !ok {
				ops[c] = append(ops[c], 0)
				continue
			}
			id := tr.AddOp("http.job", out.start, time.Duration(out.totalMs*1e6),
				obs.String("kind", j.kind), obs.String("id", f.ID), obs.String("cache", f.Cache),
				obs.Float("submit_ms", out.submitMs), obs.Float("result_ms", out.resultMs),
				obs.Float("queue_ms", f.QueueMS), obs.Float("run_ms", f.RunMS))
			tr.Ingest(id, f.Created, out.trace)
			ops[c] = append(ops[c], id)
		}
	}

	raw, err = b.get(ctx, "/metrics")
	if err != nil {
		return ops, err
	}
	fams, err := metrics.ParseText(bytes.NewReader(raw))
	if err != nil {
		return ops, fmt.Errorf("/metrics: %w", err)
	}
	value := func(name string) int64 {
		if f := fams[name]; f != nil && len(f.Samples) > 0 {
			return int64(f.Samples[0].Value)
		}
		return 0
	}
	tr.Event("serve.metrics",
		obs.Int64("hits", value("rdl_cache_hits_total")),
		obs.Int64("misses", value("rdl_cache_misses_total")),
		obs.Int64("bytes", value("rdl_cache_bytes")))
	return ops, nil
}
