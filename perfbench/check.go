package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"rdlroute/internal/codec"
	"rdlroute/internal/design"
	"rdlroute/internal/drc"
	"rdlroute/internal/geom"
	"rdlroute/internal/layout"
	"rdlroute/internal/obs"
	"rdlroute/internal/router"
)

// checked is a result as its user receives it, verified.
type checked struct {
	res    *router.Result
	lb     float64 // Σ octilinear pad-to-pad distance of the routed nets
	digest string  // sha256 of the routed layout, for cross-unit comparison
}

// spanOf opens a benchmark span on tr under operation op (0: the current
// one), or a no-op span when untraced.
func spanOf(tr *Tracer, op int, name string) obs.Span {
	if tr == nil {
		return obs.Nop().Span(name)
	}
	return tr.SpanUnder(op, name)
}

// checkResult decodes an rdl-result/v1 document against its design and
// verifies it: DRC-clean under drc.CheckWorkers, every net it marks
// routed connected, and its routed count consistent with its layout.
// With a tracer, decoding and DRC are spans under operation op.
func checkResult(raw []byte, d *design.Design, workers int, tr *Tracer, op int) (*checked, error) {
	sp := spanOf(tr, op, "bench:decode")
	res, err := codec.DecodeResult(bytes.NewReader(raw), d)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("%s: result does not decode: %w", d.Name, err)
	}
	lay := res.Layout
	sp = spanOf(tr, op, "bench:drc")
	vs := drc.CheckWorkers(lay, workers)
	sp.End()
	if len(vs) > 0 {
		return nil, fmt.Errorf("%s: %d DRC violations, first: %v", d.Name, len(vs), vs[0])
	}
	if lay.RoutedCount() != res.RoutedNets {
		return nil, fmt.Errorf("%s: result claims %d routed nets, layout marks %d",
			d.Name, res.RoutedNets, lay.RoutedCount())
	}
	c := &checked{res: res}
	for ni, n := range d.Nets {
		if !lay.Routed(ni) {
			continue
		}
		if !lay.Connected(ni) {
			return nil, fmt.Errorf("%s: net %d is marked routed but not connected", d.Name, ni)
		}
		c.lb += geom.OctDist(d.PadCenter(n.P1), d.PadCenter(n.P2))
	}
	var buf bytes.Buffer
	if err := layout.Format(&buf, lay); err != nil {
		return nil, fmt.Errorf("%s: format layout: %w", d.Name, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	c.digest = hex.EncodeToString(sum[:])
	return c, nil
}

// account adds a verified result to the pass's quality totals.
func (p *pass) account(c *checked) {
	p.routed += c.res.RoutedNets
	p.total += c.res.TotalNets
	p.wl += c.res.Wirelength
	p.lb += c.lb
	p.digests = append(p.digests, c.digest)
}

// fail records a job that did not complete, such as one that ran into
// its deadline.
func (p *pass) fail(reason string) {
	p.failed++
	p.failures = append(p.failures, reason)
	p.digests = append(p.digests, "")
}

// wrong records a job whose result failed verification.
func (p *pass) wrong(err error) {
	p.failed++
	p.problems = append(p.problems, err.Error())
	p.digests = append(p.digests, "")
}

// digestOf returns the content hash of a design.
func digestOf(d *design.Design) (InputDigest, error) {
	h, err := codec.DesignHash(d)
	if err != nil {
		return InputDigest{}, fmt.Errorf("hash design %s: %w", d.Name, err)
	}
	return InputDigest{Name: d.Name, Hash: h}, nil
}
