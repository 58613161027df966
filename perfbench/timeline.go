package main

import (
	"sort"
	"time"

	"ftrepair/internal/obs"
)

// interval is one timed region on a traced operation's timeline, in
// milliseconds from the operation's origin.
type interval struct {
	layer      string
	start, end float64
}

// stepTimer records the benchmark's own spans around each layer call. A
// nil *stepTimer runs the calls untimed, so untraced runs pay nothing.
type stepTimer struct {
	origin time.Time
	spans  []interval
}

func newStepTimer() *stepTimer { return &stepTimer{origin: time.Now()} }

// step runs f and, on a non-nil timer, records it as one span of layer.
func (t *stepTimer) step(layer string, f func() error) error {
	if t == nil {
		return f()
	}
	s := time.Since(t.origin)
	err := f()
	t.spans = append(t.spans, interval{layer: layer, start: ms(s), end: ms(time.Since(t.origin))})
	return err
}

// wrapperLayers are spans the benchmark puts around a whole call into the
// program. Time inside them that no named layer covers is unattributed.
var wrapperLayers = map[string]bool{"repair.call": true, "incr.append": true}

// phaseLayers maps the program's own phase spans to layer names. Distance
// spans are mapped by their parent (targetsearch or shardselect).
var phaseLayers = map[obs.Phase]string{
	obs.PhaseDetect:       "repair.detect",
	obs.PhaseGraphBuild:   "vgraph.graphbuild",
	obs.PhaseExpand:       "mis.expand",
	obs.PhaseGreedyGrow:   "repair.greedygrow",
	obs.PhaseTargetSearch: "targettree.search",
	obs.PhaseApply:        "repair.apply",
	obs.PhaseShardSelect:  "incr.shardselect",
	obs.PhaseIncRepair:    "incr.increpair",
}

// programIntervals converts a trace's spans to timeline intervals. Callers
// start the trace just before their stepTimer, so the two origins agree to
// within microseconds.
func programIntervals(spans []obs.SpanSummary) []interval {
	out := make([]interval, 0, len(spans))
	for i, s := range spans {
		layer := phaseLayers[s.Phase]
		if s.Phase == obs.PhaseDistance {
			layer = "targettree.distance"
			// Summaries are in start order: the parent is the latest
			// top-level span that started before the child and covers it.
			for j := i - 1; j >= 0; j-- {
				p := spans[j]
				if p.Depth == 0 && p.Start <= s.Start && p.Start+p.DurMs >= s.Start {
					if p.Phase == obs.PhaseShardSelect {
						layer = "incr.shardselect"
					}
					break
				}
			}
		}
		out = append(out, interval{layer: layer, start: s.Start, end: s.Start + s.DurMs})
	}
	return out
}

// selfTimes attributes every instant of [lo, hi] to the most specific
// interval covering it — the one that started last, which on one thread
// is the innermost — and returns each layer's attributed milliseconds.
// Instants no interval covers are returned under "".
func selfTimes(ivs []interval, lo, hi float64) map[string]float64 {
	type edge struct {
		at    float64
		start bool
		i     int
	}
	edges := make([]edge, 0, 2*len(ivs)+2)
	for i, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e <= s {
			continue
		}
		edges = append(edges, edge{s, true, i}, edge{e, false, i})
	}
	sort.SliceStable(edges, func(a, b int) bool { return edges[a].at < edges[b].at })
	out := make(map[string]float64)
	var active []int // indices into ivs, in activation order
	prev := lo
	for _, e := range edges {
		if e.at > prev {
			layer := ""
			if len(active) > 0 {
				layer = ivs[active[len(active)-1]].layer
			}
			out[layer] += e.at - prev
			prev = e.at
		}
		if e.start {
			active = append(active, e.i)
			continue
		}
		for k := len(active) - 1; k >= 0; k-- {
			if active[k] == e.i {
				active = append(active[:k], active[k+1:]...)
				break
			}
		}
	}
	if hi > prev {
		out[""] += hi - prev
	}
	return out
}

// unattributed sums the time no named layer accounts for: gaps between
// spans plus wrapper self time.
func unattributed(self map[string]float64) float64 {
	u := self[""]
	for l := range wrapperLayers {
		u += self[l]
	}
	return u
}
