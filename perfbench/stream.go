package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"ftrepair"
	"ftrepair/internal/dataset"
	"ftrepair/internal/incr"
	"ftrepair/internal/obs"
)

// streamWorkload is one repaird streaming session: a base relation, then
// closed-loop appends of fixed-size batches, each flushing on size.
type streamWorkload struct {
	base, appends, batch int
	// instances is the panel size: how many sessions one run drives,
	// each over its own generated instance.
	instances int
}

// streamInput is a generated session: request bodies ready to send, and
// the whole relation (base plus appended rows) with its truth.
type streamInput struct {
	g          *generated // all base+appended rows, dirty and clean
	baseCSV    []byte
	createBody []byte
	appendBody [][]byte
	batches    [][][]string
}

// instance generates session i of the run's panel: one generation pass
// over base plus appended rows, so streamed errors can repair toward the
// base's patterns, as gen.Stream does.
func (w streamWorkload) instance(c runConfig, i int) (*streamInput, error) {
	base, appends := c.scaled(w.base), w.appends
	if c.scale < 1 {
		appends = max(2, int(float64(appends)*c.scale))
	}
	g, err := generate("hosp", base+appends*w.batch, c.instanceSeed(i), true)
	if err != nil {
		return nil, err
	}
	var bb bytes.Buffer
	baseRel := &dataset.Relation{Schema: g.dirty.Schema, Tuples: g.dirty.Tuples[:base]}
	if err := dataset.WriteCSV(&bb, baseRel); err != nil {
		return nil, err
	}
	in := &streamInput{g: g, baseCSV: bb.Bytes()}
	in.createBody, err = json.Marshal(ftrepair.SessionSpec{
		CSV: bb.String(), Types: g.types, FDs: g.fds,
		Algorithm: "GreedyM", MaxBatch: w.batch,
	})
	if err != nil {
		return nil, err
	}
	for a := 0; a < appends; a++ {
		rows := make([][]string, w.batch)
		for i := range rows {
			rows[i] = g.dirty.Tuples[base+a*w.batch+i]
		}
		body, err := json.Marshal(map[string]any{"rows": rows})
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, rows)
		in.appendBody = append(in.appendBody, body)
	}
	return in, nil
}

// loopback serves repaird's handler in-process on a loopback port for one
// closed-loop client.
type loopback struct {
	srv    *ftrepair.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startServer() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := ftrepair.NewServer(ftrepair.ServerConfig{})
	lb := &loopback{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: 120 * time.Second},
		done:   make(chan struct{}),
	}
	go func() {
		defer close(lb.done)
		_ = lb.hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return lb, nil
}

// stop shuts the listener and the service down and waits for the serving
// goroutine to exit.
func (lb *loopback) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = lb.hs.Shutdown(ctx)
	<-lb.done
	_ = lb.srv.Shutdown(ctx)
	lb.client.CloseIdleConnections()
}

// do sends one request and reads the whole response.
func (lb *loopback) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, lb.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := lb.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// sessionRun is what one session measured.
type sessionRun struct {
	setup, wall time.Duration
	appendMs    []float64
	allocMB     []float64
	events      []struct {
		DurMs         float64 `json:"durMs"`
		ShardsTouched int     `json:"shardsTouched"`
		MaxShardRows  int     `json:"maxShardRows"`
	}
	relation []byte
}

// createSession posts the session spec and returns the session id and the
// client-observed create latency.
func (in *streamInput) createSession(lb *loopback) (string, time.Duration, error) {
	t := time.Now()
	code, body, err := lb.do("POST", "/v1/sessions", in.createBody)
	d := time.Since(t)
	if err != nil {
		return "", d, err
	}
	if code != http.StatusCreated {
		return "", d, fmt.Errorf("create session: status %d: %s", code, body)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return "", d, err
	}
	return v.ID, d, nil
}

// session runs one full streaming job: create, every append in a closed
// loop, then read the session's repaired relation. Append failures are
// counted in r; only transport errors abort.
func (in *streamInput) session(lb *loopback, r *report) (*sessionRun, error) {
	run := &sessionRun{}
	start := time.Now()
	id, setup, err := in.createSession(lb)
	if err != nil {
		return nil, err
	}
	run.setup = setup
	for _, body := range in.appendBody {
		a0 := totalAlloc()
		t := time.Now()
		code, resp, err := lb.do("POST", "/v1/sessions/"+id+"/tuples", body)
		d := time.Since(t)
		run.allocMB = append(run.allocMB, float64(totalAlloc()-a0)/1e6)
		if err != nil {
			return nil, err
		}
		r.attempted++
		if err := checkAppend(code, resp); err != nil {
			r.fail("append: %v", err)
			continue
		}
		run.appendMs = append(run.appendMs, ms(d))
	}
	code, rel, err := lb.do("GET", "/v1/sessions/"+id+"/relation", nil)
	run.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("get relation: status %d", code)
	}
	run.relation = rel
	code, view, err := lb.do("GET", "/v1/sessions/"+id, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("get session: status %d", code)
	}
	var v struct {
		Events json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(view, &v); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(v.Events, &run.events); err != nil {
		return nil, err
	}
	if _, _, err := lb.do("DELETE", "/v1/sessions/"+id, nil); err != nil {
		return nil, err
	}
	return run, nil
}

// checkAppend fails an append that did not return 200 or reported a row
// error.
func checkAppend(code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
	}
	var resp struct {
		Results []struct {
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	for i, rr := range resp.Results {
		if rr.Error != "" {
			return fmt.Errorf("row %d: %s", i, rr.Error)
		}
	}
	return nil
}

// oracle is incr.RepairAll over the base plus every appended row, with
// the constraint set and distance model the session compiles from its
// base, rendered as the session's relation endpoint renders it.
func (in *streamInput) oracle() ([]byte, *compiled, error) {
	base, err := load(in.baseCSV, in.g.types, in.g.fds, nil)
	if err != nil {
		return nil, nil, err
	}
	all := &dataset.Relation{Schema: base.rel.Schema, Tuples: in.g.dirty.Tuples}
	rep, _, err := incr.RepairAll(all, base.set, base.cfg, incr.Options{Algorithm: "GreedyM"})
	if err != nil {
		return nil, nil, err
	}
	var sb strings.Builder
	if err := dataset.WriteCSV(&sb, rep); err != nil {
		return nil, nil, err
	}
	return []byte(sb.String()), &compiled{rel: all, set: base.set, cfg: base.cfg}, nil
}

// run measures the streaming workload over a panel of sessions, each on
// its own generated instance and checked against its own oracle.
func (w streamWorkload) run(c runConfig) (*report, error) {
	lb, err := startServer()
	if err != nil {
		return nil, err
	}
	defer lb.stop()
	r := newReport()
	k := panelSize(w.instances, c)
	if c.trace {
		return r, w.traced(c, k, lb, r)
	}
	var setups, walls, appendMs, allocs []float64
	var q qualityAcc
	err = passes(c.budget(), k, func(pass, i int) error {
		in, err := w.instance(c, i)
		if err != nil {
			return err
		}
		want, all, err := in.oracle()
		if err != nil {
			return err
		}
		run, err := in.session(lb, r)
		if err != nil {
			return err
		}
		setups = append(setups, run.setup.Seconds())
		walls = append(walls, run.wall.Seconds())
		appendMs = append(appendMs, run.appendMs...)
		allocs = append(allocs, run.allocMB...)
		r.attempted++
		rel := run.relation
		if c.corrupt != nil {
			rel = c.corrupt(rel)
		}
		if !bytes.Equal(rel, want) {
			r.fail("session relation differs from incr.RepairAll over the same rows")
		}
		if pass > 0 {
			return nil
		}
		out, err := dataset.ReadCSV(bytes.NewReader(rel), "")
		if err != nil {
			r.fail("session relation does not parse: %v", err)
			return nil
		}
		if out.Len() != in.g.dirty.Len() || out.Schema.Len() != in.g.dirty.Schema.Len() {
			r.fail("session relation is %d×%d, input %d×%d",
				out.Len(), out.Schema.Len(), in.g.dirty.Len(), in.g.dirty.Schema.Len())
			return nil
		}
		return q.add(in.g, out, all)
	})
	if err != nil {
		return r, err
	}
	r.values["peak_rss_mb"] = peakRSSMB()
	r.setTiming("setup_s", setups)
	r.setTiming("wall_s", walls)
	r.values["latency_ms_p50"] = quantile(appendMs, 0.5)
	r.values["latency_ms_p75"] = quantile(appendMs, 0.75)
	r.samples["latency_ms_p50"], r.samples["latency_ms_p75"] = len(appendMs), len(appendMs)
	var total float64
	for _, a := range appendMs {
		total += a
	}
	if total > 0 {
		r.values["rows_per_s"] = float64(len(appendMs)*w.batch) / (total / 1000)
		r.samples["rows_per_s"] = len(appendMs)
	}
	r.values["alloc_mb"] = mean(allocs)
	r.samples["alloc_mb"] = len(allocs)
	if len(q.costs) == 0 {
		return r, fmt.Errorf("no session relation had the input's shape")
	}
	q.set(r)
	return r, nil
}

// traced runs, per panel instance while the budget lasts, one untraced
// HTTP session (flush times, shard telemetry and server overhead come from
// its progress events) and one traced replay of the same base and batches
// straight into incr.NewEngine/Append with incr.Options.Trace. Per-layer
// times are per append, medians over the replays.
func (w streamWorkload) traced(c runConfig, k int, lb *loopback, r *report) error {
	acc := make(map[string][]float64)
	var flushMs, overhead, tracedAppend []float64
	total := make(map[string]float64)
	err := upTo(c.budget(), k, func(i int) error {
		in, err := w.instance(c, i)
		if err != nil {
			return err
		}
		want, all, err := in.oracle()
		if err != nil {
			return err
		}
		run, err := in.session(lb, r)
		if err != nil {
			return err
		}
		r.attempted++
		if !bytes.Equal(run.relation, want) {
			r.fail("session relation differs from incr.RepairAll over the same rows")
		}
		if len(run.events) != len(run.appendMs) {
			return fmt.Errorf("session reported %d flushes for %d appends", len(run.events), len(run.appendMs))
		}
		var touched, maxRows float64
		for i, ev := range run.events {
			flushMs = append(flushMs, ev.DurMs)
			overhead = append(overhead, run.appendMs[i]-ev.DurMs)
			touched += float64(ev.ShardsTouched)
			maxRows = max(maxRows, float64(ev.MaxShardRows))
		}
		acc["incr.shards_touched"] = append(acc["incr.shards_touched"], touched/float64(len(run.events)))
		acc["incr.max_shard_rows"] = append(acc["incr.max_shard_rows"], maxRows)
		final, err := dataset.ReadCSV(bytes.NewReader(want), "")
		if err != nil {
			return err
		}
		acc["repair.residual_violations"] = append(acc["repair.residual_violations"], residual(all, final))

		self, durs, err := in.replay(acc)
		if err != nil {
			return err
		}
		tracedAppend = append(tracedAppend, durs...)
		for l, v := range self {
			total[l] += v
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, m := range perLayer {
		r.setTiming(m.Name, acc[m.Name])
	}
	r.setTiming("incr.flush_ms_p50", flushMs)
	r.setTiming("server.overhead_ms_p50", overhead)
	// Both sides are the engine's own flush durations for the same
	// batches: the replay's with tracing on, the session's with it off.
	r.values["trace.overhead_frac"] = mean(tracedAppend)/mean(flushMs) - 1
	traceVerdict(r, total, mean(tracedAppend))
	return nil
}

// replay feeds the session's base and batches into a traced engine and
// appends per-append layer times and counter deltas to acc. It returns
// the attributed self times of the last append window and every append's
// engine-reported duration in ms.
func (in *streamInput) replay(acc map[string][]float64) (map[string]float64, []float64, error) {
	tr := obs.NewTrace("perfbench replay")
	tm := newStepTimer()
	base, err := load(in.baseCSV, in.g.types, in.g.fds, tm)
	if err != nil {
		return nil, nil, err
	}
	var eng *incr.Engine
	err = tm.step("incr.init", func() (err error) {
		eng, _, err = incr.NewEngine(base.rel, base.set, base.cfg, incr.Options{Algorithm: "GreedyM", Trace: tr})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	lo := tm.spans[len(tm.spans)-1].end
	before := snapCounters()
	var durs []float64
	var rewritten int
	for _, rows := range in.batches {
		var br *incr.BatchResult
		err := tm.step("incr.append", func() (err error) {
			br, err = eng.Append(rows, "size", nil)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		durs = append(durs, ms(br.Elapsed))
		rewritten += br.Rewritten
	}
	hi := tm.spans[len(tm.spans)-1].end
	n := float64(len(in.batches))
	addDeltas(acc, before, n)
	acc["incr.rows_rewritten"] = append(acc["incr.rows_rewritten"], float64(rewritten)/n)
	var sb strings.Builder
	_ = tm.step("dataset.write", func() error { return eng.WriteCSV(&sb) })

	ivs := append(append([]interval(nil), tm.spans...), programIntervals(tr.Summaries())...)
	self := selfTimes(ivs, lo, hi)
	for _, l := range layerTimes {
		acc[l+"_ms"] = append(acc[l+"_ms"], self[l]/n)
	}
	// Set-up-only layers are per session, outside the append window.
	whole := selfTimes(tm.spans, 0, tm.spans[len(tm.spans)-1].end)
	for _, l := range []string{"dataset.read", "fd.compile", "dataset.write"} {
		acc[l+"_ms"][len(acc[l+"_ms"])-1] = whole[l]
	}
	acc["trace.unattributed_ms"] = append(acc["trace.unattributed_ms"], unattributed(self)/n)
	return self, durs, nil
}
