package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"rdlroute/internal/codec"
	"rdlroute/internal/design"
	"rdlroute/internal/obs"
	"rdlroute/internal/qa"
	"rdlroute/internal/router"
)

// routeDeadline bounds one in-process route; a route that runs into it
// counts as a failed job instead of stalling the run.
const routeDeadline = 60 * time.Second

// routeJob runs one in-process job — a cold route and the rdl-result/v1
// encoding a caller would receive — and verifies the encoded result
// outside the timed region. Index is the design's position in the
// workload's input list. A traced job is preceded by the same job
// untraced, whose time is the base of the tracing overhead.
func routeJob(ctx context.Context, cfg Config, d *design.Design, index int, tr *Tracer, p *pass) {
	p.attempted++
	opts := router.DefaultOptions()
	opts.Workers = cfg.Workers
	var op *OpSpan
	if tr != nil {
		_, _, _, plain, err := timedRoute(ctx, d, opts, nil)
		if err != nil {
			p.fail(fmt.Sprintf("%s: %v", d.Name, err))
			return
		}
		p.plainBusy += plain
		opts.Tracer = tr
		op = tr.Op("job", obs.String("design", d.Name), obs.Int("index", index))
	}

	a0 := allocated()
	res, raw, routeDur, jobDur, err := timedRoute(ctx, d, opts, tr)
	p.allocBytes += allocated() - a0
	if err != nil {
		if op != nil {
			op.End()
		}
		p.fail(fmt.Sprintf("%s: %v", d.Name, err))
		return
	}
	p.busy += jobDur
	p.designMs = append(p.designMs, ms(routeDur))
	p.jobMs = append(p.jobMs, ms(jobDur))

	c, err := checkResult(raw, d, cfg.Workers, tr, 0)
	if op != nil {
		op.End()
	}
	if err == nil && (c.res.RoutedNets != res.RoutedNets || c.res.Wirelength != res.Wirelength) {
		err = fmt.Errorf("%s: decoded result disagrees with the routed one", d.Name)
	}
	if err != nil {
		p.wrong(err)
		return
	}
	p.account(c)
}

// timedRoute routes d cold under the route deadline and encodes the
// result, returning the result, its bytes, the route time and the job
// time (route plus encoding). With a tracer both steps are spans.
func timedRoute(ctx context.Context, d *design.Design, opts router.Options, tr *Tracer) (*router.Result, []byte, time.Duration, time.Duration, error) {
	t0 := time.Now()
	sp := spanOf(tr, 0, "bench:route")
	rctx, cancel := context.WithTimeout(ctx, routeDeadline)
	res, err := router.RouteContext(rctx, d, opts)
	cancel()
	sp.End()
	routeDur := time.Since(t0)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var buf bytes.Buffer
	sp = spanOf(tr, 0, "bench:encode")
	err = codec.EncodeResult(&buf, res)
	sp.End()
	return res, buf.Bytes(), routeDur, time.Since(t0), err
}

// denseCold routes one Table-I circuit cold per unit. Its input does not
// depend on the seed.
type denseCold struct {
	cfg Config
	d   *design.Design
	in  []InputDigest
}

func (w *denseCold) setup(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	spec, err := design.DenseSpec(w.cfg.Circuit)
	if err != nil {
		return 0, err
	}
	if w.d, err = design.Generate(spec); err != nil {
		return 0, err
	}
	gen := time.Since(t0)
	dg, err := digestOf(w.d)
	if err != nil {
		return 0, err
	}
	w.in = []InputDigest{dg}
	return gen, warmUp(ctx)
}

func (w *denseCold) inputs() []InputDigest { return w.in }
func (w *denseCold) passes() int           { return 1 }

func (w *denseCold) run(ctx context.Context, _ int, tr *Tracer) (*pass, error) {
	p := &pass{}
	routeJob(ctx, w.cfg, w.d, 0, tr, p)
	return p, nil
}

// batch routes Designs seeded qa designs cold, one after another, per
// unit. The designs come from a fixed pool of Designs*6/5 qa designs
// (qa seeds batchPoolSeed and up); the seed picks which Designs of them a
// unit routes and in which order. Every seed's unit then carries nearly
// the same routing work, so the batch's times measure the router rather
// than the draw, while each seed still routes its own set.
type batch struct {
	cfg     Config
	designs []*design.Design
	in      []InputDigest
}

// batchPoolSeed is the qa seed of the first design in the batch's pool.
const batchPoolSeed = 1000

func (w *batch) setup(ctx context.Context) (time.Duration, error) {
	if w.cfg.Designs < 1 || w.cfg.Designs > 1000 {
		return 0, fmt.Errorf("batch size %d out of range [1, 1000]", w.cfg.Designs)
	}
	pick := rand.New(rand.NewSource(w.cfg.Seed)).Perm(w.cfg.Designs * 6 / 5)[:w.cfg.Designs]
	t0 := time.Now()
	w.designs = w.designs[:0]
	for _, i := range pick {
		w.designs = append(w.designs, qa.Generate(batchPoolSeed+int64(i)))
	}
	gen := time.Since(t0)
	w.in = w.in[:0]
	for _, d := range w.designs {
		dg, err := digestOf(d)
		if err != nil {
			return 0, err
		}
		w.in = append(w.in, dg)
	}
	return gen, warmUp(ctx)
}

func (w *batch) inputs() []InputDigest { return w.in }
func (w *batch) passes() int           { return 1 }

func (w *batch) run(ctx context.Context, _ int, tr *Tracer) (*pass, error) {
	p := &pass{}
	for i, d := range w.designs {
		routeJob(ctx, w.cfg, d, i, tr, p)
	}
	return p, nil
}

// warmUp routes Table-I dense1, a design outside every measured set, so
// the timed region does not pay the process's first heap growth.
func warmUp(ctx context.Context) error {
	d, err := warmUpDesign()
	if err != nil {
		return err
	}
	rctx, cancel := context.WithTimeout(ctx, routeDeadline)
	defer cancel()
	if _, err := router.RouteContext(rctx, d, router.DefaultOptions()); err != nil {
		return fmt.Errorf("warm-up route of %s: %w", d.Name, err)
	}
	return nil
}

func warmUpDesign() (*design.Design, error) {
	spec, err := design.DenseSpec("dense1")
	if err != nil {
		return nil, err
	}
	return design.Generate(spec)
}
