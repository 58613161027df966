package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"ftrepair"
	"ftrepair/internal/dataset"
	"ftrepair/internal/eval"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/obs"
)

// noiseRate is the §6.1 dirty-cell share every workload injects.
const noiseRate = 0.04

// batchWorkload is one `ftrepair` CLI configuration over a generated
// relation.
type batchWorkload struct {
	dataset string // "hosp" or "tax"
	n       int
	// typed passes the generator's schema as a type spec (ftrepair
	// -types); otherwise types are inferred with Retype, the CLI default.
	typed  bool
	algo   ftrepair.Algorithm
	ledger bool // attach a ledger and dump it (ftrepair -ledger)
	// instances is the panel size: how many generated relations one run
	// repairs, each with its own seed.
	instances int
}

// generated is a workload's inputs plus its ground truth.
type generated struct {
	clean, dirty *dataset.Relation
	csv          []byte
	types        string
	fds          []string
}

// generate builds n clean rows of dataset with seed, dirties them at the
// benchmark's noise rate and renders the CSV and FD specs a user would
// pass to ftrepair.
func generate(name string, n int, seed int64, typed bool) (*generated, error) {
	var clean *dataset.Relation
	var fds []*fd.FD
	switch name {
	case "hosp":
		clean = gen.HOSP{Seed: seed}.Generate(n)
		fds = gen.HOSPFDs(clean.Schema)
	case "tax":
		clean = gen.Tax{Seed: seed}.Generate(n)
		fds = gen.TaxFDs(clean.Schema)
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	dirty, _ := gen.Inject(clean, fds, noiseRate, seed+1)
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, dirty); err != nil {
		return nil, err
	}
	g := &generated{clean: clean, dirty: dirty, csv: buf.Bytes()}
	if typed {
		g.types = typeSpec(clean.Schema, stringTyped[name])
	}
	for _, f := range fds {
		g.fds = append(g.fds, fdSpec(f))
	}
	return g, nil
}

// stringTyped names, per dataset, the numeric column a type spec declares
// string: the §6.1 typo injector writes a letter into decimals ("6.3"
// becomes "6w.3"), so dirty Tax Rate cells do not load as numbers.
var stringTyped = map[string]string{"tax": "Rate"}

// typeSpec renders a schema's types as an ftrepair -types argument, with
// the column named asString declared string.
func typeSpec(s *dataset.Schema, asString string) string {
	parts := make([]string, s.Len())
	for i := range parts {
		parts[i] = "string"
		if s.Attr(i).Type == dataset.Numeric && s.Attr(i).Name != asString {
			parts[i] = "numeric"
		}
	}
	return strings.Join(parts, ",")
}

// fdSpec renders an FD as an ftrepair -fd argument ("A,B -> C").
func fdSpec(f *fd.FD) string {
	spec := f.String()
	if i := strings.Index(spec, ": "); i >= 0 {
		spec = spec[i+2:]
	}
	return strings.NewReplacer("[", "", "]", "").Replace(spec)
}

// compiled is a loaded relation with its constraint set and distance
// model, as the CLI builds them before repairing.
type compiled struct {
	rel *ftrepair.Relation
	set *ftrepair.Set
	cfg *ftrepair.DistConfig
}

// load runs the CLI's steps from CSV bytes to a repairable problem:
// ReadCSV, Retype when no type spec is given, then ParseFD, NewDistConfig
// and NewSet with the CLI's default weights and threshold.
func load(csv []byte, types string, fdSpecs []string, tm *stepTimer) (*compiled, error) {
	c := &compiled{}
	err := tm.step("dataset.read", func() (err error) {
		c.rel, err = ftrepair.ReadCSV(bytes.NewReader(csv), types)
		return err
	})
	if err != nil {
		return nil, err
	}
	if types == "" {
		_ = tm.step("profile.retype", func() error {
			c.rel = ftrepair.Retype(c.rel)
			return nil
		})
	}
	err = tm.step("fd.compile", func() (err error) {
		c.set, c.cfg, err = compile(c.rel, fdSpecs)
		return err
	})
	return c, err
}

func compile(rel *ftrepair.Relation, fdSpecs []string) (*ftrepair.Set, *ftrepair.DistConfig, error) {
	parsed := make([]*ftrepair.FD, len(fdSpecs))
	taus := make([]float64, len(fdSpecs))
	for i, spec := range fdSpecs {
		f, err := ftrepair.ParseFD(rel.Schema, spec)
		if err != nil {
			return nil, nil, err
		}
		parsed[i], taus[i] = f, eval.BenchTau
	}
	cfg, err := ftrepair.NewDistConfig(rel, eval.BenchWL, eval.BenchWR)
	if err != nil {
		return nil, nil, err
	}
	set, err := ftrepair.NewSet(parsed, taus...)
	return set, cfg, err
}

// jobResult is one batch job's output.
type jobResult struct {
	in  *compiled
	csv []byte
	// ftErr is VerifyFTConsistent's verdict; the CLI prints it as a
	// warning and still exits 0.
	ftErr error
}

// job runs one `ftrepair` invocation in-process, from CSV bytes to
// repaired CSV bytes: load, Repair, the ledger dump, WriteCSV, then
// VerifyFTConsistent. tr and tm are nil in untraced runs.
func (w batchWorkload) job(g *generated, tr *obs.Trace, tm *stepTimer) (*jobResult, error) {
	in, err := load(g.csv, g.types, g.fds, tm)
	if err != nil {
		return nil, err
	}
	opts := ftrepair.Options{Trace: tr}
	var led *ftrepair.Ledger
	if w.ledger {
		led = ftrepair.NewLedger()
		opts.Ledger = led
	}
	var res *ftrepair.Result
	err = tm.step("repair.call", func() (err error) {
		res, err = ftrepair.Repair(in.rel, in.set, in.cfg, w.algo, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &jobResult{in: in}
	if led != nil {
		// The dump goes to memory where the CLI writes a file.
		var lb bytes.Buffer
		if err := tm.step("ledger.write", func() error { return led.WriteJSONL(&lb) }); err != nil {
			return nil, err
		}
	}
	var ob bytes.Buffer
	if err := tm.step("dataset.write", func() error { return ftrepair.WriteCSV(&ob, res.Repaired) }); err != nil {
		return nil, err
	}
	out.csv = ob.Bytes()
	_ = tm.step("repair.verify", func() error {
		out.ftErr = ftrepair.VerifyFTConsistent(res.Repaired, in.set, in.cfg)
		return nil
	})
	return out, nil
}

// checkBatch is the per-job correctness check, run outside the timed
// region: the output must parse, keep every row and column, leave every
// column no FD uses as it was, and be a closed-world valid repair of the
// input. The parsed output is returned
// whenever it has the input's shape, even when it is not valid, so the
// quality metrics still see it.
func checkBatch(g *generated, r *jobResult) (*dataset.Relation, error) {
	out, err := dataset.ReadCSV(bytes.NewReader(r.csv), "")
	if err != nil {
		return nil, fmt.Errorf("output does not parse: %v", err)
	}
	if out.Len() != g.dirty.Len() || out.Schema.Len() != g.dirty.Schema.Len() {
		return nil, fmt.Errorf("output is %d×%d, input %d×%d",
			out.Len(), out.Schema.Len(), g.dirty.Len(), g.dirty.Schema.Len())
	}
	for i := 0; i < out.Schema.Len(); i++ {
		if out.Schema.Attr(i).Name != g.dirty.Schema.Attr(i).Name {
			return nil, fmt.Errorf("output column %d is %q, input %q", i, out.Schema.Attr(i).Name, g.dirty.Schema.Attr(i).Name)
		}
	}
	if err := untouchedOutsideFDs(r.in, out); err != nil {
		return out, err
	}
	typed := &dataset.Relation{Schema: r.in.rel.Schema, Tuples: out.Tuples}
	return out, ftrepair.VerifyValid(r.in.rel, typed, r.in.set)
}

// untouchedOutsideFDs fails an output that changed a cell in a column no
// FD uses: a repair only writes the attributes of the FDs it enforces.
func untouchedOutsideFDs(in *compiled, out *dataset.Relation) error {
	used := make([]bool, in.rel.Schema.Len())
	for _, f := range in.set.FDs {
		for _, c := range f.Attrs() {
			used[c] = true
		}
	}
	for i, t := range in.rel.Tuples {
		for c, v := range t {
			if !used[c] && out.Tuples[i][c] != v {
				return fmt.Errorf("row %d column %q changed from %q to %q, and no FD uses it",
					i, in.rel.Schema.Attr(c).Name, v, out.Tuples[i][c])
			}
		}
	}
	return nil
}

// qualityAcc pools repair quality over a run's instances: precision and
// recall as eval.Evaluate computes them, over the pooled cells, changed
// cells per injected error, and the median repair cost per instance under
// each job's own distance model.
type qualityAcc struct {
	correct          float64
	repaired, errors int
	costs            []float64
}

func (a *qualityAcc) add(g *generated, out *dataset.Relation, in *compiled) error {
	asStrings := func(rel *dataset.Relation) *dataset.Relation {
		return &dataset.Relation{Schema: out.Schema, Tuples: rel.Tuples}
	}
	q, err := eval.Evaluate(asStrings(g.clean), asStrings(g.dirty), out, eval.Options{})
	if err != nil {
		return err
	}
	a.correct += q.Correct
	a.repaired += q.Repaired
	a.errors += q.Errors
	a.costs = append(a.costs, in.cfg.DatabaseCost(in.rel, &dataset.Relation{Schema: in.rel.Schema, Tuples: out.Tuples}))
	return nil
}

func (a *qualityAcc) set(r *report) {
	r.values["precision"] = 1
	if a.repaired > 0 {
		r.values["precision"] = a.correct / float64(a.repaired)
	}
	r.values["recall"] = a.correct / float64(max(a.errors, 1))
	r.values["changed_per_error"] = float64(a.repaired) / float64(max(a.errors, 1))
	r.values["repair_cost"] = quantile(a.costs, 0.5)
	for _, k := range []string{"precision", "recall", "changed_per_error", "repair_cost"} {
		r.samples[k] = len(a.costs)
	}
	r.notef("quality over %d instances: %d cells changed for %d injected errors, %.1f correct",
		len(a.costs), a.repaired, a.errors, a.correct)
}

// residual counts the FT-violation pairs Detect still finds in out under
// the job's constraint set and distance model.
func residual(in *compiled, out *dataset.Relation) float64 {
	typed := &dataset.Relation{Schema: in.rel.Schema, Tuples: out.Tuples}
	return float64(len(ftrepair.Detect(typed, in.set, in.cfg, ftrepair.Options{})))
}

// instance generates instance i of the run's panel.
func (w batchWorkload) instance(c runConfig, i int) (*generated, error) {
	return generate(w.dataset, c.scaled(w.n), c.instanceSeed(i), w.typed)
}

// panelSize is how many instances a run's panel holds (fewer in tests).
func panelSize(k int, c runConfig) int {
	if c.scale < 1 {
		return max(1, min(k, 2))
	}
	return k
}

// run measures one batch workload over a panel of generated instances:
// untraced jobs for the end-to-end metrics, or paired untraced and traced
// jobs for the per-layer metrics. Timings are medians over jobs, quality
// is pooled over the panel.
func (w batchWorkload) run(c runConfig) (*report, error) {
	r := newReport()
	k := panelSize(w.instances, c)
	if c.trace {
		return r, w.traced(c, k, r)
	}
	var setup, walls, allocs []float64
	var q qualityAcc
	err := passes(c.budget(), k, func(pass, i int) error {
		g, err := w.instance(c, i)
		if err != nil {
			return err
		}
		if pass == 0 {
			// Set-up: the load-and-compile steps before Repair, which
			// the job below pays again.
			t := time.Now()
			if _, err := load(g.csv, g.types, g.fds, nil); err != nil {
				return err
			}
			setup = append(setup, time.Since(t).Seconds())
		}
		a0 := totalAlloc()
		t := time.Now()
		res, err := w.job(g, nil, nil)
		d := time.Since(t)
		allocs = append(allocs, float64(totalAlloc()-a0)/1e6)
		r.attempted++
		if err != nil {
			r.fail("job: %v", err)
			return nil
		}
		// A job whose output fails the check still ran to the end: its
		// time counts, and its output feeds the quality metrics.
		walls = append(walls, d.Seconds())
		if c.corrupt != nil {
			res.csv = c.corrupt(res.csv)
		}
		out, err := checkBatch(g, res)
		if err != nil {
			r.fail("job output: %v", err)
		}
		if pass == 0 && out != nil {
			if res.ftErr != nil && len(q.costs) == 0 {
				r.notef("output not FT-consistent (the CLI warns and exits 0): %v", res.ftErr)
			}
			return q.add(g, out, res.in)
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	r.values["peak_rss_mb"] = peakRSSMB()
	r.setTiming("setup_s", setup)
	r.setTiming("wall_s", walls)
	r.values["latency_ms_p50"] = quantile(walls, 0.5) * 1000
	r.values["latency_ms_p75"] = quantile(walls, 0.75) * 1000
	r.samples["latency_ms_p50"], r.samples["latency_ms_p75"] = len(walls), len(walls)
	if wall := r.values["wall_s"]; wall > 0 {
		r.values["rows_per_s"] = float64(c.scaled(w.n)) / wall
		r.samples["rows_per_s"] = len(walls)
	}
	// A mean, not a median: bytes allocated for the same input vary from
	// job to job in large steps, and the mean is what a run of many jobs
	// allocates per job.
	r.values["alloc_mb"] = mean(allocs)
	r.samples["alloc_mb"] = len(allocs)
	if len(q.costs) == 0 {
		return r, fmt.Errorf("no job produced an output of the input's shape")
	}
	q.set(r)
	return r, nil
}

// counterSnap reads the registry counters the per-layer metrics are
// deltas of.
type counterSnap map[string]uint64

func snapCounters() counterSnap {
	p := obs.Pipeline
	return counterSnap{
		"fd.distcache_hits":          p.DistCacheHits.Value(),
		"fd.distcache_misses":        p.DistCacheMisses.Value(),
		"fd.distplane_hits":          p.DistPlaneHits.Value(),
		"fd.distplane_misses":        p.DistPlaneMisses.Value(),
		"vgraph.builds":              p.GraphBuilds.Value(),
		"vgraph.edges":               p.GraphEdges.Value(),
		"repair.greedy_set_vertices": p.GreedySetSize.Value(),
		"repair.join_fallbacks":      p.JoinFallbacks.Value(),
		"targettree.nodes_visited":   p.TreeVisited.Value(),
		"ledger.events":              obs.Ledger.Events.Value(),
		"ledger.bytes":               obs.Ledger.Bytes.Value(),
	}
}

// addDeltas adds (now - before) / per for every counter to acc.
func addDeltas(acc map[string][]float64, before counterSnap, per float64) {
	for k, v := range snapCounters() {
		acc[k] = append(acc[k], float64(v-before[k])/per)
	}
}

// layerTimes are the per-layer milliseconds taken from the traced
// timeline, as self time.
var layerTimes = []string{
	"dataset.read", "dataset.write", "profile.retype", "fd.compile",
	"vgraph.graphbuild", "repair.greedygrow", "repair.apply", "repair.verify",
	"targettree.search", "targettree.distance", "ledger.write",
	"incr.shardselect", "incr.increpair",
}

// traced runs, per panel instance while the budget lasts, an untraced job
// and then a traced one. The traced job gets the benchmark's spans around
// every layer call plus the program's own phase spans (Options.Trace);
// per-layer times are self times on the merged timeline, and every
// per-layer value is the median over the traced jobs.
func (w batchWorkload) traced(c runConfig, k int, r *report) error {
	acc := make(map[string][]float64)
	var plain, tracedWall []float64
	total := make(map[string]float64)
	err := upTo(c.budget(), k, func(i int) error {
		g, err := w.instance(c, i)
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := w.job(g, nil, nil); err != nil {
			return err
		}
		plain = append(plain, ms(time.Since(t)))

		tr := obs.NewTrace("perfbench " + c.workload)
		tm := newStepTimer()
		before := snapCounters()
		var res *jobResult
		err = tm.step("job", func() (err error) {
			res, err = w.job(g, tr, tm)
			return err
		})
		r.attempted++
		if err != nil {
			r.fail("traced job: %v", err)
			return nil
		}
		addDeltas(acc, before, 1)
		jobSpan := tm.spans[len(tm.spans)-1]
		ivs := append(tm.spans[:len(tm.spans)-1:len(tm.spans)-1], programIntervals(tr.Summaries())...)
		self := selfTimes(ivs, jobSpan.start, jobSpan.end)
		tracedWall = append(tracedWall, jobSpan.end-jobSpan.start)
		for _, l := range layerTimes {
			acc[l+"_ms"] = append(acc[l+"_ms"], self[l])
		}
		for l, v := range self {
			total[l] += v
		}
		for _, iv := range tm.spans {
			if iv.layer == "repair.call" {
				acc["repair.call_ms"] = append(acc["repair.call_ms"], iv.end-iv.start)
			}
		}
		acc["trace.unattributed_ms"] = append(acc["trace.unattributed_ms"], unattributed(self))
		acc["profile.mistyped_cols"] = append(acc["profile.mistyped_cols"], float64(mistypedCols(g, res.in)))

		out, err := checkBatch(g, res)
		if err != nil {
			r.fail("traced job output: %v", err)
		}
		if out != nil {
			acc["repair.residual_violations"] = append(acc["repair.residual_violations"], residual(res.in, out))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, m := range perLayer {
		r.setTiming(m.Name, acc[m.Name])
	}
	r.values["trace.overhead_frac"] = quantile(tracedWall, 0.5)/quantile(plain, 0.5) - 1
	traceVerdict(r, total, quantile(tracedWall, 0.5))
	return nil
}

// mistypedCols counts columns whose type after the CLI's load differs from
// the generator's schema.
func mistypedCols(g *generated, in *compiled) int {
	n := 0
	for i := 0; i < in.rel.Schema.Len(); i++ {
		if in.rel.Schema.Attr(i).Type != g.clean.Schema.Attr(i).Type {
			n++
		}
	}
	return n
}

// traceVerdict applies the traced run's own check and notes which layer,
// and which package, took the largest share of the last traced operation.
func traceVerdict(r *report, self map[string]float64, wall float64) {
	total := 0.0
	byPkg := make(map[string]float64)
	for l, v := range self {
		total += v
		if l != "" && !wrapperLayers[l] {
			byPkg[strings.SplitN(l, ".", 2)[0]] += v
		}
	}
	if total > 0 {
		r.notef("dominant layer: %s (%.0f%% of the traced operation); dominant package: %s (%.0f%%)",
			argmax(self), 100*self[argmax(self)]/total, argmax(byPkg), 100*byPkg[argmax(byPkg)]/total)
	}
	if wall > 0 && r.values["trace.unattributed_ms"] > maxUnattributed*wall {
		r.checkErr = fmt.Errorf("layers leave %.1f ms of %.1f ms unattributed (bound %.0f%%)",
			r.values["trace.unattributed_ms"], wall, 100*maxUnattributed)
	}
}

// argmax returns the named layer with the largest value.
func argmax(m map[string]float64) string {
	best := ""
	for k, v := range m {
		if k != "" && !wrapperLayers[k] && (best == "" || v > m[best] || v == m[best] && k < best) {
			best = k
		}
	}
	return best
}
