package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"straight/internal/bench"
	"straight/internal/resultstore"
	"straight/internal/served"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// daemonWorkloads are the programs daemon jobs simulate, sized so one
// point takes a few tens of milliseconds: a job then costs about as
// much as its HTTP, JSON and store work several times over, not a
// thousand times over.
var daemonWorkloads = []struct {
	w     workloads.Workload
	iters int
}{
	{workloads.Dhrystone, 30},
	{workloads.MicroFib, 3},
	{workloads.MicroBranch, 2},
	{workloads.MicroPointer, 3},
}

// daemonPolicies are the cores daemon points run on.
var daemonPolicies = []sweepPolicy{
	{bench.CoreStraight, bench.ModeREP},
	{bench.CoreSS, ""},
	{bench.CoreCG, ""},
}

const (
	daemonClients = 2  // closed-loop clients, one connection each
	daemonWorkers = 2  // server-wide simulation slots
	warmupJobs    = 2  // untimed jobs each client runs first
	jobsPerPass   = 10 // jobs each client completes per pass
	// Each pass ends with store-warm jobs (warm_ms); spreading them over
	// the run samples the server in every state it passes through.
	warmJobsPerPass = 5
	warmJobPoints   = 16 // points per warm job, enough that work outweighs wake-ups
)

// daemonPoint draws one design point from rng. name becomes part of the
// configuration's name, which the point's content address hashes, so
// each name is a point the store has not seen even when its machine
// parameters repeat.
func daemonPoint(rng *rand.Rand, name string) bench.SweepPoint {
	dw := daemonWorkloads[rng.Intn(len(daemonWorkloads))]
	pol := daemonPolicies[rng.Intn(len(daemonPolicies))]
	cfg := machineConfig(pol.core, rng.Intn(2))
	if rng.Intn(2) == 1 {
		cfg.Predictor = uarch.PredTAGE
	}
	cfg.Name += "/" + name
	p := bench.SweepPoint{Section: "perfbench-daemon", Label: name, Workload: dw.w, Core: pol.core,
		Iters: dw.iters, Mode: pol.mode, Config: cfg}
	if pol.core == bench.CoreStraight {
		p.MaxDist = cfg.MaxDistance
	}
	return p
}

// jobPoints is client c's j-th job: a fresh point only this client asks
// for; a shared point both clients ask for in their j-th job, which the
// server coalesces when the two requests overlap (else the later one is
// a store hit); and, from the third job on, the client's fresh points
// of its previous two jobs, which are store hits.
func jobPoints(seed int64, c, j int) []bench.SweepPoint {
	gen := func(who, j int) bench.SweepPoint {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(who)*7_919 + int64(j)))
		if who == daemonClients {
			return daemonPoint(rng, fmt.Sprintf("shared-%d", j))
		}
		return daemonPoint(rng, fmt.Sprintf("c%d-%d", who, j))
	}
	pts := []bench.SweepPoint{gen(c, j), gen(daemonClients, j)}
	for back := 1; back <= 2 && j-back >= 0; back++ {
		pts = append(pts, gen(c, j-back))
	}
	return pts
}

// job is one completed request as the client saw it.
type job struct {
	latency time.Duration
	updates []served.PointUpdate
	points  []bench.SweepPoint
}

// daemonClient posts jobs over its own connection and records the
// streamed updates of each. served.Client calls OnUpdate on the goroutine
// that called Run, so updates needs no lock.
type daemonClient struct {
	cl      *served.Client
	updates []served.PointUpdate
}

func newDaemonClient(url string) *daemonClient {
	d := &daemonClient{}
	d.cl = &served.Client{
		BaseURL: url,
		HTTPClient: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}},
		OnUpdate: func(u served.PointUpdate) { d.updates = append(d.updates, u) },
	}
	return d
}

// post runs one job to its terminal summary record.
func (d *daemonClient) post(r *run, pts []bench.SweepPoint) (job, error) {
	d.updates = nil
	sp := r.tr.start(0, "served", "job")
	t := time.Now()
	_, err := d.cl.Run(pts)
	lat := time.Since(t)
	r.tr.finish(sp)
	return job{latency: lat, updates: d.updates, points: pts}, err
}

func runDaemon(r *run) error {
	var specs []imageSpec
	for _, dw := range daemonWorkloads {
		specs = append(specs, imageSpec{dw.w, dw.iters, "riscv", ""}, imageSpec{dw.w, dw.iters, "straight", bench.ModeREP})
	}
	images, err := r.setup(specs)
	if err != nil {
		return err
	}
	refs, err := r.references(specs, images)
	if err != nil {
		return err
	}
	r.workers["server"] = daemonWorkers
	r.workers["clients"] = daemonClients

	st, err := openStore(filepath.Join(r.workDir, "daemon.store"))
	if err != nil {
		return err
	}
	bench.SetStore(st)
	defer bench.SetStore(nil)
	srv := served.NewServer(served.Config{Workers: daemonWorkers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	clients := make([]*daemonClient, daemonClients)
	for c := range clients {
		clients[c] = newDaemonClient(url)
	}
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-serveErr; serr != http.ErrServerClosed && err == nil {
			err = serr
		}
		for _, c := range clients {
			c.cl.HTTPClient.CloseIdleConnections()
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		return err
	}

	var all []job
	next := make([]int, daemonClients)
	// pass has every client complete jobsPerPass jobs in a closed loop.
	pass := func(n int) ([]job, float64) {
		jobs := make([][]job, daemonClients)
		var wg sync.WaitGroup
		start := time.Now()
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := 0; k < n; k++ {
					j, err := clients[c].post(r, jobPoints(r.seed, c, next[c]))
					next[c]++
					if err != nil {
						j.updates = nil
						fmt.Printf("daemon: client %d job failed: %v\n", c, err)
					}
					jobs[c] = append(jobs[c], j)
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(start).Seconds()
		var out []job
		for _, js := range jobs {
			out = append(out, js...)
		}
		return out, wall
	}

	// warm posts store-warm requests: jobs of points the clients have
	// finished, so every point is a store hit.
	var warmMS []float64
	warm := func() {
		for k := 0; k < warmJobsPerPass; k++ {
			var pts []bench.SweepPoint
			for i := 0; i < warmJobPoints; i++ {
				c := i % daemonClients
				back := (len(warmMS) + i) % min(next[c], 2*jobsPerPass)
				pts = append(pts, jobPoints(r.seed, c, next[c]-1-back)[0])
			}
			j, err := clients[0].post(r, pts)
			if err != nil {
				fmt.Printf("daemon: warm job failed: %v\n", err)
				j.updates = nil
			}
			all = append(all, j)
			warmMS = append(warmMS, j.latency.Seconds()*1e3)
			for _, u := range j.updates {
				r.check(u.Cached, "warm job: point %s was not a store hit", u.Name)
			}
		}
	}

	var (
		passWalls, kips, latMS, waitMS []float64
		simulatedN, coalescedN, cached float64
		policyRate                     = newThroughput()
	)
	// Untimed jobs first give later jobs earlier points to hit.
	warmup, _ := pass(warmupJobs)
	all = append(all, warmup...)
	err = r.measure(func() error {
		js, wall := pass(jobsPerPass)
		all = append(all, js...)
		passWalls = append(passWalls, wall)
		var retired float64
		for _, j := range js {
			latMS = append(latMS, j.latency.Seconds()*1e3)
			var simWall time.Duration
			for _, u := range j.updates {
				switch {
				case u.Coalesced:
					coalescedN++
				case u.Cached:
					cached++
				case u.Result != nil && u.Index >= 0 && u.Index < len(j.points):
					simulatedN++
					retired += float64(u.Result.Retired)
					simWall = max(simWall, time.Duration(u.Result.WallNS))
					policyRate.add(string(j.points[u.Index].Core), u.Result.Retired, time.Duration(u.Result.WallNS))
				}
			}
			waitMS = append(waitMS, (j.latency-simWall).Seconds()*1e3)
		}
		kips = append(kips, retired/wall/1e3)
		warm()
		return nil
	})
	if err != nil {
		stop()
		return err
	}

	r.storeCounts(st.Stats())
	if err := stop(); err != nil {
		return err
	}

	r.e2e["pass_s"] = median(passWalls)
	r.e2e["sim_kips"] = median(kips)
	t := tailOf(latMS)
	r.e2e["op_p50_ms"], r.e2e["op_tail_ms"] = t.P50, t.Tail
	r.e2e["warm_ms"] = median(warmMS)
	total := simulatedN + coalescedN + cached
	fmt.Printf("daemon: %d passes of %d jobs per client; job latency %s; %.0f points simulated, %.0f coalesced, %.0f store hits\n",
		len(passWalls), jobsPerPass, t, simulatedN, coalescedN, cached)
	r.layer["served.wait_ms"] = median(waitMS)
	r.layer["served.coalesced_frac"] = coalescedN / total
	r.layer["served.cached_frac"] = cached / total
	for _, k := range []string{"straight", "ss", "cg"} {
		r.layer["engine.kips."+k] = policyRate.rate(k) / 1e3
	}
	hits, misses := bench.BuildCacheStats()
	r.layer["bench.build_cache_hit_frac"] = share(hits, hits+misses)
	return r.verifyDaemon(all, refs)
}

// verifyDaemon checks every job and every streamed result: each job
// reported every point, and each result matches a local
// bench.ExecutePoint of the same point (simulated without the store)
// and the emulator's reference for its image.
func (r *run) verifyDaemon(jobs []job, refs map[imageSpec]reference) error {
	bench.SetStore(nil)
	type seen struct {
		p    bench.SweepPoint
		sims []string
	}
	byKey := map[resultstore.Key]*seen{}
	for _, j := range jobs {
		r.check(len(j.updates) == len(j.points), "job of %d points got %d results", len(j.points), len(j.updates))
		for _, u := range j.updates {
			if u.Index < 0 || u.Index >= len(j.points) || u.Result == nil {
				r.check(false, "update %d (%s): %s", u.Index, u.Name, u.Error)
				continue
			}
			p := j.points[u.Index]
			k, err := bench.PointKey(p)
			if err != nil {
				return err
			}
			if byKey[k] == nil {
				byKey[k] = &seen{p: p}
			}
			byKey[k].sims = append(byKey[k].sims, simulated(u.Result.Result(p, u.Cached)))
		}
	}
	keys := make([]resultstore.Key, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })

	// Re-simulate every distinct point locally, on as many workers as the
	// server had.
	refRes := make([]bench.PointResult, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < daemonWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refRes[i], errs[i] = bench.ExecutePoint(byKey[keys[i]].p)
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	var replayVals [][]byte
	wantByKey := map[resultstore.Key]string{}
	for i, k := range keys {
		s := byKey[k]
		if errs[i] != nil {
			r.check(false, "%s: local reference run: %v", s.p.Name(), errs[i])
			continue
		}
		v, err := json.Marshal(refRes[i].Data())
		if err != nil {
			return err
		}
		replayVals = append(replayVals, v)
		r.checkPoint(refRes[i], refs[specOf(s.p)])
		want := simulated(refRes[i])
		wantByKey[k] = want
		for _, got := range s.sims {
			r.check(got == want, "%s: daemon result differs from local ExecutePoint", s.p.Name())
		}
	}
	// The digest covers the jobs every run completes (the warm-up jobs
	// and each client's first pass), so it depends on the seed alone, not
	// on how many passes the run's time allowed.
	for c := 0; c < daemonClients; c++ {
		for j := 0; j < warmupJobs+jobsPerPass; j++ {
			for _, p := range jobPoints(r.seed, c, j) {
				k, err := bench.PointKey(p)
				if err != nil {
					return err
				}
				fmt.Fprintf(r.digest, "%s\n%s\n", k, wantByKey[k])
			}
		}
	}
	if !r.traced || len(replayVals) != len(keys) {
		return nil
	}
	return r.storeReplay(keys, replayVals)
}
