package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"straight/internal/bench"
	"straight/internal/perf"
	"straight/internal/resultstore"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// sweepWorkloads are the programs of the sweep, at iteration counts
// that make each cycle-level point retire 0.05–0.15M instructions (one
// CoreMark iteration is the floor), so one pass takes about a second
// and a run collects hundreds of point latencies. micro-stream is left out: it walks a
// 4 MiB array and retires over 20M instructions even at one iteration,
// which belongs to the long tier the sampled workload covers.
var sweepWorkloads = []struct {
	w     workloads.Workload
	iters int
}{
	{workloads.Dhrystone, 30},
	{workloads.CoreMark, 1},
	{workloads.MicroFib, 3},
	{workloads.MicroSieve, 1},
	{workloads.MicroPointer, 3},
	{workloads.MicroBranch, 2},
}

// sweepPolicy is one compiler/core pairing of the design space.
type sweepPolicy struct {
	core bench.CoreKind
	mode bench.CompilerMode
}

var sweepPolicies = []sweepPolicy{
	{bench.CoreStraight, bench.ModeREP},
	{bench.CoreStraight, bench.ModeRAW},
	{bench.CoreSS, ""},
	{bench.CoreCG, ""},
}

// machineConfig returns the Table I machine (or its memory-bound
// variant) for a core kind: m is 0 for 2-way, 1 for 4-way, 2 for
// 4-way-membound.
func machineConfig(core bench.CoreKind, m int) uarch.Config {
	return machines[core][m]()
}

var machines = map[bench.CoreKind][3]func() uarch.Config{
	bench.CoreStraight: {uarch.Straight2Way, uarch.Straight4Way, uarch.Straight4WayMemBound},
	bench.CoreSS:       {uarch.SS2Way, uarch.SS4Way, uarch.SS4WayMemBound},
	bench.CoreCG:       {uarch.CG2Way, uarch.CG4Way, uarch.CG4WayMemBound},
}

// robScales scale the machine's ROB (and with it STRAIGHT's MAX_RP).
var robScales = []float64{0.5, 0.75, 1, 1.25}

// sweepPoints builds the seeded design. Cell (workload i, policy j) runs
// on machine (i+j) mod 3 of {2-way, 4-way, 4-way-membound} with ROB
// scale (i+j) mod 4 of robScales, so each program meets every machine
// and every ROB size. The seed picks, per program, which two of its four
// cells predict with TAGE instead of gshare. Every seed thus simulates
// the same programs on the same machines, and the seed changes what is
// simulated but hardly how much: the slowest points, which set the
// latency tail, stay the slowest.
// One emulator point per image follows the cycle-level points.
func sweepPoints(seed int64) ([]bench.SweepPoint, []imageSpec) {
	rng := rand.New(rand.NewSource(seed))
	var points []bench.SweepPoint
	var specs []imageSpec
	for i, sw := range sweepWorkloads {
		specs = append(specs,
			imageSpec{sw.w, sw.iters, "riscv", ""},
			imageSpec{sw.w, sw.iters, "straight", bench.ModeREP},
			imageSpec{sw.w, sw.iters, "straight", bench.ModeRAW})
		tage := rng.Perm(len(sweepPolicies))[:len(sweepPolicies)/2]
		for j, pol := range sweepPolicies {
			cfg := machineConfig(pol.core, (i+j)%3)
			if slices.Contains(tage, j) {
				cfg.Predictor = uarch.PredTAGE
			}
			cfg.ROBSize = int(math.Round(float64(cfg.ROBSize) * robScales[(i+j)%len(robScales)]))
			label := fmt.Sprintf("%s/%s%s/%s/rob%d/pred%d", sw.w, pol.core, pol.mode, cfg.Name, cfg.ROBSize, cfg.Predictor)
			p := bench.SweepPoint{Section: "perfbench", Label: label, Workload: sw.w, Core: pol.core,
				Iters: sw.iters, Mode: pol.mode, Config: cfg}
			if pol.core == bench.CoreStraight {
				p.MaxDist = cfg.MaxDistance
			}
			points = append(points, p)
		}
	}
	for _, s := range specs {
		p := bench.SweepPoint{Section: "perfbench", Label: s.String() + "/emu", Workload: s.w, Iters: s.iters, Core: bench.CoreEmuRISCV}
		if s.isa == "straight" {
			p.Core, p.Mode, p.MaxDist = bench.CoreEmuStraight, s.mode, maxDist
		}
		points = append(points, p)
	}
	return points, specs
}

// specOf is the image a point runs.
func specOf(p bench.SweepPoint) imageSpec {
	switch p.Core {
	case bench.CoreStraight, bench.CoreEmuStraight:
		return imageSpec{p.Workload, p.Iters, "straight", p.Mode}
	}
	return imageSpec{p.Workload, p.Iters, "riscv", ""}
}

// simulated is a result's simulated content — everything but wall time
// and provenance — as canonical bytes: equal bytes mean the simulation
// produced identical statistics.
func simulated(res bench.PointResult) string {
	d := res.Data()
	d.WallNS = 0
	b, err := json.Marshal(d)
	if err != nil {
		panic(err) // plain data
	}
	return string(b)
}

// checkPoint verifies one point result against the emulator's reference
// for its image: same console output and retired-instruction count, and
// counters that pass Stats.Check.
func (r *run) checkPoint(res bench.PointResult, ref reference) {
	p := res.Point
	if !p.Core.Cycle() {
		r.check(res.Retired == ref.insts, "%s: emulator retired %d, reference %d", p.Name(), res.Retired, ref.insts)
		return
	}
	ok := res.Stats != nil && res.Output == ref.output && res.Retired == ref.insts
	var cerr error
	if res.Stats != nil {
		cerr = res.Stats.Check(p.Config)
	}
	r.check(ok && cerr == nil, "%s: output %q vs %q, retired %d vs %d, check %v",
		p.Name(), res.Output, ref.output, res.Retired, ref.insts, cerr)
}

func openStore(path string) (*resultstore.Store, error) {
	return resultstore.Open(path, resultstore.Options{Salt: perf.VersionSalt()})
}

// warmReps is how many store-warm passes read the store back; each is
// a few milliseconds, so warm_ms is the median of many.
const warmReps = 100

func runSweep(r *run) error {
	points, specs := sweepPoints(r.seed)
	images, err := r.setup(specs)
	if err != nil {
		return err
	}
	refs, err := r.references(specs, images)
	if err != nil {
		return err
	}
	r.workers["sweep"] = 1

	runner := &bench.Runner{Workers: 1}
	run := func(name string) ([]bench.PointResult, float64, error) {
		sp := r.tr.start(0, "bench", name)
		start := time.Now()
		res, err := runner.Run(points)
		wall := time.Since(start).Seconds()
		r.tr.finish(sp)
		return res, wall, err
	}

	var (
		first                           []string // simulated content of the first pass
		passWalls, kips, pointMS, warms []float64
		stragglers                      []float64
		policyRate                      = newThroughput()
		cycles, cycleWall               float64
		mallocs, kinsts                 float64
	)
	// pass is one sweep with no store installed.
	pass := func() error {
		var ms0, ms1 runtime.MemStats
		if r.traced {
			runtime.ReadMemStats(&ms0)
		}
		res, wall, err := run("nostore")
		if err != nil {
			r.check(false, "no-store pass: %v", err)
			return errStop
		}
		if r.traced {
			runtime.ReadMemStats(&ms1)
			mallocs += float64(ms1.Mallocs - ms0.Mallocs)
		}
		passWalls = append(passWalls, wall)
		var retired, longest float64
		for i, pr := range res {
			r.checkPoint(pr, refs[specOf(pr.Point)])
			sim := simulated(pr)
			if len(first) < len(res) {
				first = append(first, sim)
				fmt.Fprintf(r.digest, "%s\n%s\n", pr.Point.Name(), sim)
			} else {
				r.check(sim == first[i], "%s: simulated statistics differ between passes", pr.Point.Name())
			}
			if pr.Point.Core.Cycle() {
				retired += float64(pr.Retired)
				cycles += float64(pr.Cycles)
				cycleWall += pr.Wall.Seconds()
				pointMS = append(pointMS, pr.Wall.Seconds()*1e3)
				policyRate.add(string(pr.Point.Core), pr.Retired, pr.Wall)
			}
			longest = math.Max(longest, pr.Wall.Seconds())
		}
		kinsts += retired / 1e3
		kips = append(kips, retired/wall/1e3)
		stragglers = append(stragglers, longest/wall)
		return nil
	}
	if err := r.measure(pass); err != nil {
		return err
	}
	if len(first) == len(points) {
		// Once more against a fresh store: one pass writes it, the warm
		// passes read it back.
		st, err := openStore(filepath.Join(r.workDir, "sweep.store"))
		if err != nil {
			return err
		}
		bench.SetStore(st)
		res, _, err := run("store-cold")
		if err != nil {
			r.check(false, "store-cold pass: %v", err)
		}
		for i, pr := range res {
			r.check(!pr.Cached && simulated(pr) == first[i], "%s: cold store pass served from store or differs", pr.Point.Name())
			if pr.Point.Core.Cycle() {
				pointMS = append(pointMS, pr.Wall.Seconds()*1e3)
			}
		}
		for k := 0; k < warmReps && err == nil; k++ {
			var wall float64
			res, wall, err = run("store-warm")
			if err != nil {
				r.check(false, "store-warm pass: %v", err)
				break
			}
			warms = append(warms, wall*1e3)
			for i, pr := range res {
				r.check(pr.Cached && simulated(pr) == first[i], "%s: warm store pass simulated or differs", pr.Point.Name())
			}
		}
		bench.SetStore(nil)
		r.storeCounts(st.Stats())
		if err := st.Close(); err != nil {
			return err
		}
	}

	r.e2e["pass_s"] = median(passWalls)
	r.e2e["sim_kips"] = median(kips)
	t := tailOf(pointMS)
	r.e2e["op_p50_ms"], r.e2e["op_tail_ms"] = t.P50, t.Tail
	r.e2e["warm_ms"] = median(warms)
	fmt.Printf("sweep: %d points (%d cycle-level), %.0f simulated cycles per pass; point latency %s; pass walls %.3f s\n",
		len(points), len(points)-len(specs), cycles/float64(len(passWalls)), t, passWalls)

	for _, k := range []string{"straight", "ss", "cg"} {
		r.layer["engine.kips."+k] = policyRate.rate(k) / 1e3
	}
	if cycles > 0 {
		r.layer["engine.ns_per_cycle"] = cycleWall / cycles * 1e9
	}
	if kinsts > 0 {
		r.layer["engine.allocs_per_kinst"] = mallocs / kinsts
	}
	r.layer["bench.straggler_frac"] = median(stragglers)
	hits, misses := bench.BuildCacheStats()
	r.layer["bench.build_cache_hit_frac"] = share(hits, hits+misses)
	if !r.traced {
		return nil
	}
	return r.sweepProbes(points)
}

// sweepProbes measures what the timed passes cannot see from outside
// the runner: 2-worker scaling, idle-skip coverage on the memory-bound
// points, and result-store latency on the sweep's own keys and payloads.
func (r *run) sweepProbes(points []bench.SweepPoint) error {
	bench.SetStore(nil)
	r.workers["parallel_probe"] = 2
	start := time.Now()
	res, err := (&bench.Runner{Workers: 2}).Run(points)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	var busy float64
	for _, pr := range res {
		busy += pr.Wall.Seconds()
	}
	r.layer["bench.worker_busy_frac"] = busy / (2 * wall)
	r.layer["bench.parallel_speedup"] = r.e2e["pass_s"] / wall

	var skipped, cycles float64
	for _, p := range points {
		if !p.Core.Cycle() || p.Config.MemLatency != uarch.SS4WayMemBound().MemLatency {
			continue
		}
		s, err := r.skipProbe(p)
		if err != nil {
			return err
		}
		skipped += float64(s.SkippedCycles)
		cycles += float64(s.cycles)
	}
	r.layer["engine.skip_frac"] = share(int64(skipped), int64(cycles))

	var keys []resultstore.Key
	var vals [][]byte
	for _, pr := range res {
		k, err := bench.PointKey(pr.Point)
		if err != nil {
			return err
		}
		v, err := json.Marshal(pr.Data())
		if err != nil {
			return err
		}
		keys, vals = append(keys, k), append(vals, v)
	}
	return r.storeReplay(keys, vals)
}
