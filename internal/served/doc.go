// Package served implements the straightd experiment daemon: a
// long-running HTTP/JSON service that accepts sweep jobs from
// concurrent clients, executes their points on one bounded worker pool,
// coalesces identical in-flight points so the same simulation is never
// run twice concurrently, and serves repeated points from the shared
// persistent result store (internal/resultstore).
//
// The wire protocol is deliberately small:
//
//	POST /v1/run     — body {"points": [SweepPoint…]}; the response is a
//	                   newline-delimited JSON stream of PointUpdate
//	                   records, one per finished point (in completion
//	                   order, each flushed immediately) followed by a
//	                   terminal {"done": true} summary record. A body
//	                   over 1 MiB is refused with 413, and a job of
//	                   more than 4096 points with 400, before any point
//	                   runs.
//	GET  /v1/stats   — ServerStats snapshot: job/point counters, the
//	                   coalescing counters, result-store stats and
//	                   per-section hit/miss/recompute counts.
//	GET  /v1/healthz — liveness probe ("ok").
//
// Client is the matching client; it implements bench.Remote, so
// cmd/experiments -server delegates whole sweeps to a daemon without
// the experiment code knowing.
//
// Coalescing extends the build-cache singleflight idea (bench.buildOnce)
// across process boundaries: points are identified by their
// content-addressed result key (bench.PointKey), the first request to
// ask for a key simulates it, and every concurrent request for the same
// key waits on the same flight and shares the one result. Flights are
// pooled and reused across jobs (resetcomplete-checked, DESIGN.md §12).
package served
