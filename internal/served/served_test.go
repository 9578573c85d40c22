package served

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"straight/internal/bench"
	"straight/internal/resultstore"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

func testPoints() []bench.SweepPoint {
	return []bench.SweepPoint{
		bench.SSPoint("served-test", "fib/ss", workloads.MicroFib, 1, uarch.SS2Way()),
		bench.StraightPoint("served-test", "fib/straight", workloads.MicroFib, 1, bench.ModeREP, uarch.Straight2Way()),
		{Section: "served-test", Label: "fib/emu", Workload: workloads.MicroFib, Core: bench.CoreEmuRISCV, Iters: 1},
	}
}

// newTestDaemon stands up a Server over an httptest listener with a
// fresh store, and tears down the package-level bench state afterwards.
func newTestDaemon(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	st, err := resultstore.Open(filepath.Join(t.TempDir(), "results.store"), resultstore.Options{Salt: 7})
	if err != nil {
		t.Fatal(err)
	}
	bench.SetStore(st)
	bench.ResetStoreStats()
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		bench.SetStore(nil)
		bench.ResetStoreStats()
		st.Close()
	})
	return srv, &Client{BaseURL: ts.URL}
}

func TestRoundTripThroughDaemon(t *testing.T) {
	srv, client := newTestDaemon(t, Config{Workers: 2})
	if err := client.Healthy(); err != nil {
		t.Fatal(err)
	}
	points := testPoints()

	// Local ground truth, computed with the store bypassed.
	saved := bench.ResultStore()
	bench.SetStore(nil)
	want, err := bench.RunPoints(points)
	bench.SetStore(saved)
	bench.ResetStoreStats()
	if err != nil {
		t.Fatal(err)
	}

	got, err := client.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Cycles != want[i].Cycles || got[i].Retired != want[i].Retired || got[i].Output != want[i].Output {
			t.Fatalf("point %d: daemon result differs: got cycles=%d retired=%d, want cycles=%d retired=%d",
				i, got[i].Cycles, got[i].Retired, want[i].Cycles, want[i].Retired)
		}
		if got[i].Point.Name() != want[i].Point.Name() {
			t.Fatalf("point %d: name %q != %q", i, got[i].Point.Name(), want[i].Point.Name())
		}
	}

	// Second submission: every point is a store hit, marked cached.
	got2, err := client.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got2 {
		if !got2[i].Cached {
			t.Fatalf("point %d: warm daemon result not marked cached", i)
		}
	}
	stats := srv.Stats()
	if stats.JobsFinished != 2 {
		t.Fatalf("JobsFinished = %d, want 2", stats.JobsFinished)
	}
	if stats.StoreCounts.Hits != int64(len(points)) {
		t.Fatalf("store hits = %d, want %d", stats.StoreCounts.Hits, len(points))
	}
}

func TestDaemonErrorPropagation(t *testing.T) {
	_, client := newTestDaemon(t, Config{Workers: 1})
	bad := []bench.SweepPoint{
		{Section: "served-test", Label: "bogus", Workload: "no-such-workload", Core: bench.CoreEmuRISCV, Iters: 1},
	}
	_, err := client.Run(bad)
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("want error naming the failed point, got %v", err)
	}
}

// TestCoalescingExactlyOneSimulation is the acceptance test for request
// coalescing: two clients submit the same sweep concurrently and every
// point is simulated exactly once. The injected executor blocks until
// released, so the second job provably arrives while the first is still
// in flight — the coalescing window is deterministic, not a race.
func TestCoalescingExactlyOneSimulation(t *testing.T) {
	release := make(chan struct{})
	var execMu sync.Mutex
	execCount := make(map[string]int)
	exec := func(p bench.SweepPoint) (bench.PointResult, error) {
		execMu.Lock()
		execCount[p.Name()]++
		execMu.Unlock()
		<-release
		return bench.ExecutePoint(p)
	}
	srv, client := newTestDaemon(t, Config{Workers: 4, Exec: exec})
	points := testPoints()

	type runOut struct {
		res []bench.PointResult
		err error
	}
	outs := make(chan runOut, 2)
	submit := func() {
		res, err := client.Run(points)
		outs <- runOut{res, err}
	}
	go submit()
	// Wait until every point of job A is in flight…
	waitFor(t, func() bool { return srv.Stats().Inflight == len(points) })
	go submit()
	// …and until job B has attached to all of them.
	waitFor(t, func() bool { return srv.Stats().PointsCoalesced == int64(len(points)) })
	close(release)

	for i := 0; i < 2; i++ {
		out := <-outs
		if out.err != nil {
			t.Fatal(out.err)
		}
		if len(out.res) != len(points) {
			t.Fatalf("got %d results, want %d", len(out.res), len(points))
		}
	}
	execMu.Lock()
	defer execMu.Unlock()
	for _, p := range points {
		if n := execCount[p.Name()]; n != 1 {
			t.Fatalf("point %s simulated %d times, want exactly 1", p.Name(), n)
		}
	}
	stats := srv.Stats()
	if stats.PointsCoalesced != int64(len(points)) {
		t.Fatalf("PointsCoalesced = %d, want %d", stats.PointsCoalesced, len(points))
	}
	if stats.PointsExecuted != int64(len(points)) {
		t.Fatalf("PointsExecuted = %d, want %d", stats.PointsExecuted, len(points))
	}
	if stats.Inflight != 0 {
		t.Fatalf("Inflight = %d after both jobs, want 0", stats.Inflight)
	}
}

func TestStreamShapeAndStatsEndpoint(t *testing.T) {
	srv, client := newTestDaemon(t, Config{Workers: 2})
	points := testPoints()

	body, err := json.Marshal(JobRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(client.url("/v1/run"), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var lines []PointUpdate
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var u PointUpdate
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines = append(lines, u)
	}
	if len(lines) != len(points)+1 {
		t.Fatalf("stream has %d records, want %d points + 1 summary", len(lines), len(points))
	}
	last := lines[len(lines)-1]
	if !last.Done || last.Errors != 0 {
		t.Fatalf("terminal record = %+v", last)
	}
	seen := map[int]bool{}
	for _, u := range lines[:len(points)] {
		if u.Status != "done" || u.Result == nil {
			t.Fatalf("point record = %+v", u)
		}
		seen[u.Index] = true
	}
	if len(seen) != len(points) {
		t.Fatalf("stream covered indexes %v, want all %d", seen, len(points))
	}

	// Stats endpoint round-trips as JSON and reflects the job.
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsFinished != 1 || st.Workers != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Store == nil || st.Store.Entries == 0 {
		t.Fatalf("stats missing store snapshot: %+v", st.Store)
	}
	_ = srv
}

func TestRemoteIntegration(t *testing.T) {
	_, client := newTestDaemon(t, Config{Workers: 2})
	bench.SetRemote(client)
	defer bench.SetRemote(nil)
	bench.ResetJournal()
	defer bench.ResetJournal()

	points := testPoints()
	res, err := bench.RunPoints(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(points) {
		t.Fatalf("got %d results", len(res))
	}
	// The journal records remote results exactly like local ones.
	j := bench.Journal()
	if len(j) != len(points) {
		t.Fatalf("journal has %d records, want %d", len(j), len(points))
	}
	if j[0].Section != "served-test" {
		t.Fatalf("journal[0] = %+v", j[0])
	}
}

func TestShutdownFailsFast(t *testing.T) {
	srv, client := newTestDaemon(t, Config{
		Workers: 1,
		Exec: func(p bench.SweepPoint) (bench.PointResult, error) {
			time.Sleep(5 * time.Millisecond)
			return bench.ExecutePoint(p)
		},
	})
	srv.Shutdown()
	// With the lone worker slot free but the server stopped, queued
	// points must abort rather than simulate.
	_, err := client.Run(testPoints()[:1])
	if err == nil || !strings.Contains(err.Error(), "shutting down") {
		t.Fatalf("want shutdown error, got %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOversizedJobRefused: a body over maxJobBytes gets 413 and starts
// no simulation.
func TestOversizedJobRefused(t *testing.T) {
	executed := 0
	srv := NewServer(Config{Workers: 1, Exec: func(p bench.SweepPoint) (bench.PointResult, error) {
		executed++
		return bench.PointResult{Point: p}, nil
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A syntactically valid job whose padding pushes it past the limit.
	body := `{"points":[{"Label":"` + strings.Repeat("x", maxJobBytes) + `","Workload":"fib","Core":"emu-riscv","Iters":1}]}`
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	if st := srv.Stats(); executed != 0 || st.JobsStarted != 0 {
		t.Errorf("oversized job ran: %d points executed, %d jobs started", executed, st.JobsStarted)
	}
}

// TestTooManyPointsRefused: a job over maxJobPoints gets 400 with a
// message naming the limit and starts no simulation, while a job of
// exactly maxJobPoints decodes.
func TestTooManyPointsRefused(t *testing.T) {
	job := func(n int) string {
		return `{"points":[` + strings.TrimSuffix(strings.Repeat(`{"Core":"emu-riscv"},`, n), ",") + `]}`
	}
	if req, err := decodeJob(strings.NewReader(job(maxJobPoints))); err != nil || len(req.Points) != maxJobPoints {
		t.Fatalf("job of exactly %d points: %d points, %v", maxJobPoints, len(req.Points), err)
	}

	executed := 0
	srv := NewServer(Config{Workers: 1, Exec: func(p bench.SweepPoint) (bench.PointResult, error) {
		executed++
		return bench.PointResult{Point: p}, nil
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(job(maxJobPoints+1)))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
	if want := fmt.Sprintf("%d points, over the limit of %d per job", maxJobPoints+1, maxJobPoints); !strings.Contains(string(msg), want) {
		t.Errorf("response %q does not say %q", msg, want)
	}
	if st := srv.Stats(); executed != 0 || st.JobsStarted != 0 {
		t.Errorf("oversized job ran: %d points executed, %d jobs started", executed, st.JobsStarted)
	}
}

// batchRecorder is a bench.Remote that records the encoded size of each
// batch it is handed and then fails it, so an experiment stops after
// submitting its one batch without simulating anything.
type batchRecorder struct{ sizes, points map[string]int }

var errRecorded = errors.New("batch recorded")

func (b *batchRecorder) Run(points []bench.SweepPoint) ([]bench.PointResult, error) {
	raw, err := json.Marshal(JobRequest{Points: points})
	if err != nil {
		return nil, err
	}
	b.sizes[points[0].Section] = len(raw)
	b.points[points[0].Section] = len(points)
	return nil, errRecorded
}

// TestLargestExperimentBatchFits encodes every batch cmd/experiments
// submits at default scale (one per figure) and requires each to stay
// well under maxJobBytes and maxJobPoints.
func TestLargestExperimentBatchFits(t *testing.T) {
	rec := &batchRecorder{sizes: map[string]int{}, points: map[string]int{}}
	bench.SetRemote(rec)
	defer bench.SetRemote(nil)
	s := bench.ScaleDefault
	runs := []func() error{
		func() error { _, err := bench.PerfComparison(s, true, uarch.PredGshare); return err },
		func() error { _, err := bench.PerfComparison(s, false, uarch.PredTAGE); return err },
		func() error { _, err := bench.CGComparison(s, true); return err },
		func() error { _, err := bench.CGBlockSweep(s); return err },
		func() error { _, err := bench.MissPenalty(s); return err },
		func() error { _, err := bench.InstructionMix(s); return err },
		func() error { _, err := bench.DistanceCDF(s); return err },
		func() error { _, err := bench.MaxDistSweep(s); return err },
		func() error { _, _, err := bench.PowerAnalysis(s); return err },
		func() error { _, err := bench.Ablations(s); return err },
		func() error { _, err := bench.WindowScaling(s); return err },
	}
	for _, run := range runs {
		if err := run(); !errors.Is(err, errRecorded) {
			t.Fatalf("experiment did not submit a batch: %v", err)
		}
	}
	largest, section := 0, ""
	for sec, n := range rec.sizes {
		if n > largest {
			largest, section = n, sec
		}
	}
	t.Logf("largest batch: %s, %d bytes (limit %d), %d points (limit %d)", section, largest, maxJobBytes, rec.points[section], maxJobPoints)
	if largest == 0 || largest > maxJobBytes/16 {
		t.Errorf("largest batch %s encodes to %d bytes, want under %d (1/16 of the limit)", section, largest, maxJobBytes/16)
	}
	for sec, n := range rec.points {
		if n > maxJobPoints/16 {
			t.Errorf("batch %s holds %d points, want at most %d (1/16 of the limit)", sec, n, maxJobPoints/16)
		}
	}
}
