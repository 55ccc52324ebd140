package main

import (
	"strings"
)

// flowCounters are the flow's own counters reported per layer as they are.
var flowCounters = []string{
	"mpsc.chords_considered", "mpsc.chords_picked",
	"ctile.tiles", "ctile.via_sites",
	"lp.iterations",
}

// analyze derives the per-layer metrics of one traced unit from its
// records. Stage and benchmark spans are summed per operation; stage-4
// time is split per net from the gaps between consecutive net.route
// events inside stage:sequential; serve figures come from the job
// operations the serve-mix workload records.
func analyze(recs []Record) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.Name] = 0
	}
	byOp := map[int][]Record{}
	var ops []int
	var serveMetrics []Record
	for _, r := range recs {
		if r.Op == 0 {
			if r.Kind == "event" && r.Name == "serve.metrics" {
				serveMetrics = append(serveMetrics, r)
			}
			continue
		}
		if _, ok := byOp[r.Op]; !ok {
			ops = append(ops, r.Op)
		}
		byOp[r.Op] = append(byOp[r.Op], r)
	}

	var expanded, submit, result, queue []float64
	runMs := map[string][]float64{}
	for _, op := range ops {
		rs := byOp[op]
		routeMs, stageMs, staged := 0.0, 0.0, false
		var opRec, seq *Record
		for i := range rs {
			r := &rs[i]
			switch r.Kind {
			case "op":
				opRec = r
			case "span":
				switch {
				case strings.HasPrefix(r.Name, "stage:"):
					staged = true
					stageMs += r.DurMs
					out["stage."+strings.TrimPrefix(r.Name, "stage:")+"_ms"] += r.DurMs
					switch r.Name {
					case "stage:concurrent":
						out["concurrent.routed_nets"] += r.num("routed")
					case "stage:lp":
						out["lp.components"] += r.num("components")
					case "stage:sequential":
						seq = r
					}
				case r.Name == "bench:route":
					routeMs = r.DurMs
				case r.Name == "bench:encode":
					out["codec.encode_ms"] += r.DurMs
				case r.Name == "bench:decode":
					out["codec.decode_ms"] += r.DurMs
				case r.Name == "bench:drc":
					out["drc.check_ms"] += r.DurMs
				}
			case "count":
				for _, name := range flowCounters {
					if r.Name == name {
						out[name] += r.V
					}
				}
			}
		}
		if opRec != nil && opRec.Name == "http.job" {
			kind := opRec.str("kind")
			submit = append(submit, opRec.num("submit_ms"))
			result = append(result, opRec.num("result_ms"))
			queue = append(queue, opRec.num("queue_ms"))
			runMs[kind] = append(runMs[kind], opRec.num("run_ms"))
			routeMs = opRec.num("run_ms")
		}
		if staged {
			out["route.traced_ms"] += routeMs
			out["route.other_ms"] += routeMs - stageMs
		}
		if seq != nil {
			expanded = stage4(rs, seq, out, expanded)
		}
	}

	if n := out["seq.nets"]; n > 0 {
		out["seq.corridor_hit_ratio"] = out["seq.corridor_nets"] / n
	}
	out["astar.expanded_p50"] = percentile(expanded, 50)
	out["astar.expanded_p95"] = percentile(expanded, 95)
	out["http.submit_ms_p50"] = percentile(submit, 50)
	out["http.result_ms_p50"] = percentile(result, 50)
	out["serve.queue_ms_p50"] = percentile(queue, 50)
	out["serve.miss_run_ms_p50"] = percentile(runMs["miss"], 50)
	out["serve.hit_run_ms_p50"] = percentile(runMs["hit"], 50)
	out["serve.delta_run_ms_p50"] = percentile(runMs["delta"], 50)
	for _, r := range serveMetrics {
		out["serve.cache_hits"] += r.num("hits")
		out["serve.cache_misses"] += r.num("misses")
		out["serve.cache_bytes"] += r.num("bytes")
	}
	return out
}

// stage4 splits one route's stage:sequential span by net. The records of
// a net are those after the previous net.route event up to its own; its
// time is that gap. A* searches are the astar.expanded observations in
// the span. A net routed without a corridor, or failed, ran the
// unrestricted fallback search last; its search time runs from the
// preceding record of the net (or the previous net's event) to that
// search's observation. It appends the searches' expansions to expanded.
func stage4(rs []Record, seq *Record, out map[string]float64, expanded []float64) []float64 {
	lo, hi := seq.Ms, seq.Ms+seq.DurMs
	prev := lo
	var searchAt, searchExp []float64
	for _, r := range rs {
		if r.Ms < lo || r.Ms > hi {
			continue
		}
		switch {
		case r.Kind == "count" && r.Name == "astar.failures":
			out["astar.failures"] += r.V
		case r.Kind == "observe" && r.Name == "astar.expanded":
			searchAt = append(searchAt, r.Ms)
			searchExp = append(searchExp, r.V)
		case r.Kind == "event" && r.Name == "net.route" && r.str("stage") == "sequential":
			gap := r.Ms - prev
			out["seq.nets"]++
			out["astar.searches"] += float64(len(searchExp))
			out["astar.expanded_total"] += sum(searchExp)
			expanded = append(expanded, searchExp...)
			class := "fallback"
			switch {
			case r.str("outcome") == "failed":
				class = "failed"
			case r.str("mode") == "corridor":
				class = "corridor"
			}
			out["seq."+class+"_nets"]++
			out["seq."+class+"_net_ms"] += gap
			if n := len(searchAt); class != "corridor" && n > 0 {
				from := prev
				if n > 1 {
					from = searchAt[n-2]
				}
				out["seq.fallback_search_ms"] += searchAt[n-1] - from
				out["astar.fallback_expanded"] += searchExp[n-1]
			}
			prev = r.Ms
			searchAt, searchExp = searchAt[:0], searchExp[:0]
		}
	}
	return expanded
}
