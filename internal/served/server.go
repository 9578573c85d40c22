package served

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"straight/internal/bench"
	"straight/internal/resultstore"
)

// JobRequest is the body of POST /v1/run.
type JobRequest struct {
	Points []bench.SweepPoint `json:"points"`
}

// PointUpdate is one line of the /v1/run response stream. Records with
// Done false describe one finished point; the final record of a stream
// has Done true and carries only the summary fields.
type PointUpdate struct {
	Index  int    `json:"index"`
	Name   string `json:"name,omitempty"`
	Status string `json:"status,omitempty"` // "done" or "error"
	// Cached: served from the persistent store without simulation.
	// Coalesced: shared the simulation of a concurrent identical point.
	Cached    bool              `json:"cached,omitempty"`
	Coalesced bool              `json:"coalesced,omitempty"`
	Error     string            `json:"error,omitempty"`
	Result    *bench.ResultData `json:"result,omitempty"`

	// Done marks the terminal summary record of the stream.
	Done   bool `json:"done,omitempty"`
	Errors int  `json:"errors,omitempty"`
}

// ServerStats is the GET /v1/stats document.
type ServerStats struct {
	Workers         int   `json:"workers"`
	JobsStarted     int64 `json:"jobs_started"`
	JobsFinished    int64 `json:"jobs_finished"`
	PointsExecuted  int64 `json:"points_executed"`
	PointsCoalesced int64 `json:"points_coalesced"`
	PointsFailed    int64 `json:"points_failed"`
	Inflight        int   `json:"inflight"`

	StoreCounts    bench.StoreCounts            `json:"store_counts"`
	StoreBySection map[string]bench.StoreCounts `json:"store_by_section,omitempty"`
	Store          *resultstore.Stats           `json:"store,omitempty"`
	StorePutErrors int64                        `json:"store_put_errors,omitempty"`

	BuildCacheHits   int64 `json:"build_cache_hits"`
	BuildCacheMisses int64 `json:"build_cache_misses"`
}

// Config parameterizes a Server.
type Config struct {
	// Workers bounds concurrently simulating points across ALL requests;
	// <= 0 means bench.Parallelism().
	Workers int
	// Exec runs one point; nil means bench.ExecutePoint. Tests inject a
	// controllable executor to make coalescing windows deterministic.
	Exec func(p bench.SweepPoint) (bench.PointResult, error)
}

// flight is one in-flight point execution that concurrent identical
// requests attach to. Flights are pooled; refs counts every party
// holding the pointer (owner + waiters) and the last release returns it
// to the pool.
type flight struct {
	done chan struct{}
	res  bench.PointResult
	err  error
	refs int
}

// Reset restores a flight for pool reuse (resetcomplete-checked).
func (f *flight) Reset() {
	f.done = nil
	f.res = bench.PointResult{}
	f.err = nil
	f.refs = 0
}

// Server is the daemon's HTTP handler set plus the shared execution
// state. Construct with NewServer, mount via Handler, stop via Shutdown.
type Server struct {
	workers int
	exec    func(p bench.SweepPoint) (bench.PointResult, error)
	sem     chan struct{}

	quitOnce sync.Once
	quit     chan struct{}

	mu         sync.Mutex
	inflight   map[resultstore.Key]*flight
	flightPool sync.Pool

	jobsStarted  int64
	jobsFinished int64
	executed     int64
	coalesced    int64
	failed       int64
}

// NewServer builds a Server with cfg.
func NewServer(cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = bench.Parallelism()
	}
	exec := cfg.Exec
	if exec == nil {
		exec = bench.ExecutePoint
	}
	s := &Server{
		workers:  workers,
		exec:     exec,
		sem:      make(chan struct{}, workers),
		quit:     make(chan struct{}),
		inflight: make(map[resultstore.Key]*flight),
	}
	s.flightPool.New = func() any { return new(flight) }
	return s
}

// Handler returns the daemon's routing table (Go 1.22 method+pattern
// mux), suitable for http.Server.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Shutdown makes every queued and in-flight point fail fast: new slot
// acquisitions abort, and bench.Interrupt() (called by the daemon's
// signal handler alongside this) cancels running simulations. Safe to
// call more than once.
func (s *Server) Shutdown() {
	s.quitOnce.Do(func() { close(s.quit) })
}

// maxJobBytes bounds a POST /v1/run body. The largest batch
// cmd/experiments sends at default scale encodes to about 12 KB
// (TestLargestExperimentBatchFits), so this leaves nearly two orders of
// magnitude of headroom while refusing a runaway client before it is
// buffered.
const maxJobBytes = 1 << 20

// maxJobPoints bounds the points of one job. Each point gets its own
// goroutine while it waits for a worker slot, and a 1 MiB body can
// carry tens of thousands of minimal points; the largest batch
// cmd/experiments sends holds 14 (TestLargestExperimentBatchFits).
const maxJobPoints = 4096

// errJobTooLarge marks a body over maxJobBytes (413, not 400).
var errJobTooLarge = fmt.Errorf("body exceeds %d bytes", maxJobBytes)

// decodeJob reads and validates one job body: well-formed JSON, at most
// maxJobBytes (errJobTooLarge), and 1 to maxJobPoints points.
func decodeJob(body io.Reader) (JobRequest, error) {
	var req JobRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return req, errJobTooLarge
		}
		return req, err
	}
	if len(req.Points) == 0 {
		return req, errors.New("no points")
	}
	if len(req.Points) > maxJobPoints {
		return req, fmt.Errorf("%d points, over the limit of %d per job", len(req.Points), maxJobPoints)
	}
	return req, nil
}

// handleRun streams one PointUpdate per finished point, then a terminal
// summary record. A body over maxJobBytes is refused with 413, and a
// malformed job or one over maxJobPoints with 400, before any point
// runs.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req, err := decodeJob(http.MaxBytesReader(w, r.Body, maxJobBytes))
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errJobTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad job: "+err.Error(), code)
		return
	}
	s.mu.Lock()
	s.jobsStarted++
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	updates := make(chan PointUpdate)
	go func() {
		var wg sync.WaitGroup
		for i := range req.Points {
			wg.Add(1)
			go func(idx int, p bench.SweepPoint) {
				defer wg.Done()
				updates <- s.runOne(r.Context(), idx, p)
			}(i, req.Points[i])
		}
		wg.Wait()
		close(updates)
	}()

	enc := json.NewEncoder(w)
	errs := 0
	for u := range updates {
		if u.Status == "error" {
			errs++
		}
		if enc.Encode(&u) != nil {
			// Client went away; the executor goroutines still drain (their
			// sends above succeed because we keep ranging), results land in
			// the store, and coalesced peers are unaffected.
			continue
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(&PointUpdate{Done: true, Errors: errs})

	s.mu.Lock()
	s.jobsFinished++
	s.failed += int64(errs)
	s.mu.Unlock()
}

// runOne executes one point with cross-request coalescing.
func (s *Server) runOne(ctx context.Context, idx int, p bench.SweepPoint) PointUpdate {
	u := PointUpdate{Index: idx, Name: p.Name()}
	res, coalesced, err := s.execute(ctx, p)
	if err != nil {
		u.Status = "error"
		u.Error = err.Error()
		return u
	}
	u.Status = "done"
	u.Cached = res.Cached
	u.Coalesced = coalesced
	data := res.Data()
	u.Result = &data
	return u
}

// execute runs p, attaching to an identical in-flight execution when
// one exists (coalescing). The bool result reports attachment.
func (s *Server) execute(ctx context.Context, p bench.SweepPoint) (bench.PointResult, bool, error) {
	key, kerr := bench.PointKey(p)
	if kerr != nil {
		// Unkeyable points (unknown workload) can't coalesce; report the
		// error directly rather than simulating something undefined.
		return bench.PointResult{}, false, kerr
	}

	s.mu.Lock()
	if f := s.inflight[key]; f != nil {
		f.refs++
		s.coalesced++
		s.mu.Unlock()
		return s.await(ctx, key, f)
	}
	f := s.flightPool.Get().(*flight)
	f.done = make(chan struct{})
	f.refs = 1
	s.inflight[key] = f
	s.mu.Unlock()

	// Bounded worker pool: simulate only while holding a slot. The quit
	// check comes first on its own so a stopped server never starts new
	// work even when a slot happens to be free.
	select {
	case <-s.quit:
		f.err = fmt.Errorf("server shutting down")
	default:
		select {
		case s.sem <- struct{}{}:
			f.res, f.err = s.exec(p)
			<-s.sem
		case <-s.quit:
			f.err = fmt.Errorf("server shutting down")
		case <-ctx.Done():
			// The owning request died while queued. Fail the flight so
			// coalesced waiters don't hang; they re-submit if they care.
			f.err = ctx.Err()
		}
	}
	if f.err == nil {
		s.mu.Lock()
		s.executed++
		s.mu.Unlock()
	}
	close(f.done)

	// Detach from the map first so no new waiter joins a retired flight,
	// then drop the owner's reference.
	s.mu.Lock()
	if s.inflight[key] == f {
		delete(s.inflight, key)
	}
	s.mu.Unlock()
	res, err := f.res, f.err
	s.release(f)
	return res, false, err
}

// await blocks on another request's flight for the same key.
func (s *Server) await(ctx context.Context, key resultstore.Key, f *flight) (bench.PointResult, bool, error) {
	select {
	case <-f.done:
		res, err := f.res, f.err
		s.release(f)
		return res, true, err
	case <-ctx.Done():
		// Abandon the flight; the owner still completes it and the result
		// still lands in the store.
		s.release(f)
		return bench.PointResult{}, true, ctx.Err()
	}
}

// release drops one reference; the last holder resets and pools the
// flight. Callers must have finished reading f.res / f.err.
func (s *Server) release(f *flight) {
	s.mu.Lock()
	f.refs--
	last := f.refs == 0
	s.mu.Unlock()
	if last {
		f.Reset()
		s.flightPool.Put(f)
	}
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	st := ServerStats{
		Workers:         s.workers,
		JobsStarted:     s.jobsStarted,
		JobsFinished:    s.jobsFinished,
		PointsExecuted:  s.executed,
		PointsCoalesced: s.coalesced,
		PointsFailed:    s.failed,
		Inflight:        len(s.inflight),
	}
	s.mu.Unlock()
	st.StoreCounts = bench.StoreTotals()
	st.StoreBySection = bench.StoreCountsBySection()
	st.StorePutErrors = bench.StorePutErrors()
	if rs := bench.ResultStore(); rs != nil {
		stats := rs.Stats()
		st.Store = &stats
	}
	st.BuildCacheHits, st.BuildCacheMisses = bench.BuildCacheStats()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	st := s.Stats()
	_ = enc.Encode(&st)
}
