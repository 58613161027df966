// Package obs is the pipeline's observability layer: a phase-scoped tracer
// and a metrics registry, both stdlib-only and safe for concurrent use.
//
// The repair pipeline has sharply distinct cost phases — candidate
// detection, violation-graph construction, MIS expansion, greedy growth,
// target search, repair application — and the package models exactly that
// taxonomy:
//
//   - Trace/Span record wall-clock spans per phase with counter
//     attachments, FD labels, and worker ids. Spans export as plain JSON or
//     Chrome trace_event format (chrome://tracing, Perfetto) and mirror
//     into runtime/trace regions so `go tool trace` shows the same phases.
//   - Registry holds counters, gauges, and fixed-bucket histograms backed
//     by atomics, with Prometheus text exposition and a JSON snapshot.
//
// Collection is read-only with respect to repair decisions and O(1)
// amortized per event: hot loops keep accumulating into their existing
// local counters (the per-run repair Stats, atomic visit totals), and the
// totals flush into the registry once per phase or per run.
package obs

import (
	"runtime"
	"runtime/debug"
)

// Phase names one stage of the repair pipeline. The set is closed: every
// span carries one of these, so dashboards and trace viewers can group by
// phase without free-form string matching.
type Phase string

const (
	// PhaseDetect covers violation detection over the whole FD set.
	PhaseDetect Phase = "detect"
	// PhaseGraphBuild covers one violation-graph construction (per FD).
	PhaseGraphBuild Phase = "graphbuild"
	// PhaseExpand covers MIS expansion/enumeration (ExactS/ExactM).
	PhaseExpand Phase = "expand"
	// PhaseGreedyGrow covers greedy independent-set growth (GreedyS,
	// ApproM's per-FD growth, GreedyM's joint growth).
	PhaseGreedyGrow Phase = "greedygrow"
	// PhaseTargetSearch covers joined-plan evaluation: target-tree builds
	// plus nearest-target searches, including ExactM's branch-and-bound.
	PhaseTargetSearch Phase = "targetsearch"
	// PhaseDistance covers the distance-dominated inner work nested inside
	// other phases: target-tree nearest searches inside targetsearch and
	// candidate scans inside the incremental engine's shardselect. Always a
	// child span, so trace exports show distance time separately from its
	// parent phase.
	PhaseDistance Phase = "distance"
	// PhaseApply covers writing chosen repairs back into the relation.
	PhaseApply Phase = "apply"
	// PhaseShardSelect covers incremental-engine shard selection: registering
	// a batch's patterns, detecting their violations against the warm
	// registry, and union-finding the touched shards.
	PhaseShardSelect Phase = "shardselect"
	// PhaseIncRepair covers one incremental shard re-repair (the touched
	// shard's sub-relation run through the configured algorithm).
	PhaseIncRepair Phase = "increpair"
)

// Phases lists every phase in pipeline order.
func Phases() []Phase {
	return []Phase{PhaseDetect, PhaseGraphBuild, PhaseExpand,
		PhaseGreedyGrow, PhaseTargetSearch, PhaseDistance, PhaseApply,
		PhaseShardSelect, PhaseIncRepair}
}

// RunMeta is the run metadata embedded in trace headers and BENCH_*.json
// documents, so measurements stay interpretable after the fact.
type RunMeta struct {
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is the VCS revision baked in by the Go toolchain, when the
	// binary was built from a checkout (debug.ReadBuildInfo); Dirty marks
	// uncommitted changes.
	Commit string `json:"commit,omitempty"`
	Dirty  bool   `json:"dirty,omitempty"`
	// Dataset names the input the run processed (file path, workload name).
	Dataset string `json:"dataset,omitempty"`
}

// CollectMeta gathers the run metadata for the current process.
func CollectMeta(dataset string) RunMeta {
	m := RunMeta{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Dataset:    dataset,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				m.Dirty = s.Value == "true"
			}
		}
	}
	return m
}
