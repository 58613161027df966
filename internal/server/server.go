// Package server implements repaird, the repair service daemon: an
// HTTP/JSON API over the cost-based repair library. It offers three
// workloads on one process:
//
//   - batch jobs: POST /v1/jobs submits a dirty relation plus FDs; a
//     bounded worker pool executes the repair; GET /v1/jobs/{id} polls
//     status and result; DELETE /v1/jobs/{id} cancels a queued or running
//     job through the repair.Options cancellation hook.
//   - streaming sessions: POST /v1/sessions builds an incr.Engine over a
//     base relation (sharded by violation-graph component, with warm
//     per-shard state); POST /v1/sessions/{id}/tuples enqueues rows into
//     the session's batcher, which coalesces concurrent appends and
//     flushes only the touched shards through the repair machinery.
//   - operations: GET /healthz liveness, GET /v1/stats counters,
//     GET /metrics Prometheus exposition (GET /v1/metrics for the JSON
//     snapshot), opt-in /debug/pprof/*, structured request logging with
//     request ids, and graceful shutdown with in-flight job draining.
//
// Job and session specs compile through the same typing (profile.Load),
// constraint (fd.Compile) and algorithm (repair.ParseAlgorithm) functions
// as the ftrepair CLI. Everything is stdlib-only (net/http, encoding/json,
// log/slog).
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"
)

// Config tunes the server.
type Config struct {
	// Workers sizes the job worker pool; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the job queue; 0 means 256. A full queue rejects
	// submissions with 503.
	QueueDepth int
	// MaxBodyBytes caps request bodies; 0 means 64 MiB.
	MaxBodyBytes int64
	// Logger receives structured request and lifecycle logs; nil silences
	// them.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose internals and can run CPU
	// profiles on demand, so operators opt in per process.
	EnablePprof bool
}

// Server is the repair service: job store, worker pool, session registry
// and metrics behind an http.Handler.
type Server struct {
	cfg      Config
	jobs     *jobStore
	sessions *sessionRegistry
	metrics  *metrics
	pool     *pool
	mux      *http.ServeMux
	started  time.Time
	reqSeq   atomic.Uint64
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	s := &Server{
		cfg:      cfg,
		jobs:     newJobStore(),
		sessions: newSessionRegistry(),
		metrics:  newMetrics(),
		started:  time.Now(),
	}
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, s.execJob)
	s.mux = s.routes()
	return s
}

// Handler returns the HTTP surface with request logging applied.
func (s *Server) Handler() http.Handler {
	return s.logRequests(s.mux)
}

// Shutdown drains the service: intake stops (submissions get 503), queued
// and running jobs are given until ctx's deadline to finish, then every
// outstanding job is canceled through its cancellation hook and the pool is
// awaited briefly so workers observe the cancel.
func (s *Server) Shutdown(ctx context.Context) error {
	s.pool.close()
	s.sessions.closeAll()
	deadline := 5 * time.Second
	if d, ok := ctx.Deadline(); ok {
		deadline = time.Until(d)
	}
	if deadline > 0 && s.pool.wait(deadline) {
		s.logInfo("shutdown: drained cleanly")
		return nil
	}
	s.logInfo("shutdown: draining timed out; canceling outstanding jobs")
	s.jobs.cancelAll()
	if !s.pool.wait(5 * time.Second) {
		return context.DeadlineExceeded
	}
	return nil
}

// logInfo emits one structured lifecycle log line (no-op without a Logger).
func (s *Server) logInfo(msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info(msg, args...)
	}
}

// statusRecorder captures the response code for the request log. It must
// forward the optional ResponseWriter interfaces it would otherwise mask:
// streaming handlers probe for http.Flusher, and a wrapper that hides it
// would silently buffer session responses behind the logging middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer's http.Flusher, when present.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logRequests assigns every request a process-unique id (echoed in the
// X-Request-ID response header so clients can quote it back) and logs one
// structured line per request.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := requestID(r, s.reqSeq.Add(1))
		w.Header().Set("X-Request-ID", reqID)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		if s.cfg.Logger != nil {
			s.cfg.Logger.Info("request",
				"id", reqID,
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"durMs", float64(time.Since(start).Microseconds())/1000,
				"remote", r.RemoteAddr,
			)
		}
	})
}

// requestID returns the client-supplied X-Request-ID when present (so
// distributed callers can correlate) and a sequential req-NNNNNN otherwise.
func requestID(r *http.Request, seq uint64) string {
	if id := r.Header.Get("X-Request-ID"); id != "" && len(id) <= 128 {
		return id
	}
	return fmt.Sprintf("req-%06d", seq)
}
