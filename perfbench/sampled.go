package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"straight/internal/bench"
	"straight/internal/cores/engine"
	"straight/internal/perf"
	"straight/internal/program"
	"straight/internal/resultstore"
	"straight/internal/sampling"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// longIters sizes dhrystone-long (LongScale× Dhrystone iterations): a
// few million instructions, so the three full-detail reference runs fit
// in a run next to several sampled passes.
const longIters = 100

// maxIPCErr is the accuracy a sampled estimate must reach against the
// full-detail run of the same kernel; a larger error fails the run, so
// speed bought with accuracy shows as a failure, not as a gain. The
// default plan measures 4-5% here (DESIGN.md §16.4: the restart bias of
// the 128k warmup); cutting the warmup to 2k costs about 45%.
const maxIPCErr = 0.10

// warmRepeats is how many store-warm passes follow each cold one; each
// is about a millisecond, so warm_ms is the median of many.
const warmRepeats = 10

// sampledKernels are the three 4-wide machines the sampled workload runs.
var sampledKernels = []string{"straight-4way", "ss-4way", "cg-4way"}

// samplePlan is the default interval plan with a seeded SMARTS phase
// offset. The offset is drawn from the range in which the program of
// total instructions yields the same number of windows and no window is
// cut short by the exit, so every seed measures the same amount of work.
func samplePlan(total uint64, u float64) sampling.Plan {
	p := sampling.DefaultPlan()
	rem := total % p.Interval
	span := p.Interval - p.Warmup - p.Window - p.Window // a window of margin before the exit
	p.Offset = rem + uint64(u*float64(span))
	return p
}

// longSpec is the dhrystone-long image a kernel runs.
func longSpec(k perf.Kernel) imageSpec {
	if k.Kind == perf.KindStraight {
		return imageSpec{workloads.DhrystoneLong, longIters, "straight", bench.ModeREP}
	}
	return imageSpec{workloads.DhrystoneLong, longIters, "riscv", ""}
}

func runSampled(r *run) error {
	var kernels []perf.Kernel
	for _, n := range sampledKernels {
		k, err := perf.KernelByName(n)
		if err != nil {
			return err
		}
		kernels = append(kernels, k)
	}
	specs := []imageSpec{longSpec(kernels[0]), longSpec(kernels[1])}
	images, err := r.setup(specs)
	if err != nil {
		return err
	}
	refs, err := r.references(specs, images)
	if err != nil {
		return err
	}
	u := rand.New(rand.NewSource(r.seed)).Float64()
	plans := map[imageSpec]sampling.Plan{}
	for _, s := range specs {
		plans[s] = samplePlan(refs[s].insts, u)
	}
	r.workers["sample_windows"] = 2

	fullIPC, err := r.fullDetail(kernels, images, refs)
	if err != nil {
		return err
	}

	var (
		fingerprints                 [][]byte
		coldWalls, warmWalls         []float64
		kernelMS                     []float64
		ffS, winS                    []float64
		ffInsts, ffSecs              float64
		detail, useful, ci95, ipcErr float64
		lastStores                   []resultstore.Stats
		replayKeys                   []resultstore.Key
		replayVals                   [][]byte
	)
	// pass runs one cold sampled run of each kernel on a fresh store, then
	// warmRepeats store-warm repeats of all three.
	pass := func(round int) error {
		var cold, ff, win float64
		var stores []*resultstore.Store
		var reps []*sampling.Report
		defer func() {
			lastStores = lastStores[:0]
			for _, st := range stores {
				lastStores = append(lastStores, st.Stats())
				st.Close()
				os.Remove(st.Path())
			}
		}()
		for i, k := range kernels {
			s := longSpec(k)
			st, err := openStore(filepath.Join(r.workDir, fmt.Sprintf("sampled-%d-%s.store", round, k.Name)))
			if err != nil {
				return err
			}
			stores = append(stores, st)
			tgt, err := sampling.NewTarget(string(k.Kind), k.Cfg, images[s])
			if err != nil {
				return err
			}
			var out bytes.Buffer
			sp := r.tr.start(0, "sampling", "cold-"+k.Name)
			t := time.Now()
			rep, err := sampling.Run(tgt, plans[s], sampling.Options{Workers: 2, Store: st, Output: &out})
			wall := time.Since(t).Seconds()
			r.tr.finish(sp)
			if err != nil {
				r.check(false, "%s cold sampled run: %v", k.Name, err)
				return nil
			}
			cold += wall
			kernelMS = append(kernelMS, wall*1e3)
			ff += rep.Timing.FFSeconds
			win += rep.Timing.WindowSeconds
			ffInsts += float64(rep.TotalInsts)
			ffSecs += rep.Timing.FFSeconds
			ref := refs[s]
			relErr := math.Abs(rep.IPC-fullIPC[i]) / fullIPC[i]
			r.check(rep.TotalInsts == ref.insts && rep.ExitCode == ref.exit && out.String() == ref.output && relErr <= maxIPCErr,
				"%s sampled: insts %d vs %d, exit %d vs %d, output match %v, IPC error %.2f%%",
				k.Name, rep.TotalInsts, ref.insts, rep.ExitCode, ref.exit, out.String() == ref.output, 100*relErr)
			fp := rep.Fingerprint()
			if len(fingerprints) < len(kernels) {
				fingerprints = append(fingerprints, fp)
				fmt.Fprintf(r.digest, "%s sampled\n%s\n", k.Name, fp)
				var d, m float64
				for _, w := range rep.Windows {
					d += float64(w.WarmupRetired + w.Retired)
					m += float64(w.Retired)
					key, err := resultstore.ParseKey(w.Key)
					if err != nil {
						return err
					}
					v, err := json.Marshal(w)
					if err != nil {
						return err
					}
					replayKeys, replayVals = append(replayKeys, key), append(replayVals, v)
				}
				detail += d
				useful += m
				ci95 = math.Max(ci95, 100*rep.CPI.RelCI95)
				ipcErr = math.Max(ipcErr, 100*relErr)
			} else {
				r.check(bytes.Equal(fp, fingerprints[i]), "%s: sampled report differs between passes", k.Name)
			}
			reps = append(reps, rep)
		}
		for n := 0; n < warmRepeats; n++ {
			var warm float64
			for i, k := range kernels {
				tgt, err := sampling.NewTarget(string(k.Kind), k.Cfg, images[longSpec(k)])
				if err != nil {
					return err
				}
				sp := r.tr.start(0, "sampling", "warm-"+k.Name)
				t := time.Now()
				rep, err := sampling.Run(tgt, plans[longSpec(k)], sampling.Options{Workers: 2, Store: stores[i]})
				warm += time.Since(t).Seconds()
				r.tr.finish(sp)
				if err != nil {
					r.check(false, "%s warm sampled run: %v", k.Name, err)
					return nil
				}
				r.check(rep.Timing.StoreHits == len(rep.Windows) && bytes.Equal(rep.Fingerprint(), reps[i].Fingerprint()),
					"%s: store-warm repeat simulated windows or changed the report", k.Name)
			}
			warmWalls = append(warmWalls, warm*1e3)
		}
		coldWalls = append(coldWalls, cold)
		ffS = append(ffS, ff)
		winS = append(winS, win)
		return nil
	}

	round := 0
	err = r.measure(func() error {
		round++
		n := r.failed
		if err := pass(round); err != nil {
			return err
		}
		if r.failed > n {
			return errStop
		}
		return nil
	})
	if err != nil {
		return err
	}

	r.e2e["pass_s"] = median(coldWalls)
	t := tailOf(kernelMS)
	r.e2e["op_p50_ms"], r.e2e["op_tail_ms"] = t.P50, t.Tail
	r.e2e["warm_ms"] = median(warmWalls)
	fmt.Printf("sampled: %d passes; kernel cold-run latency %s; offset fraction %.4f; max IPC error %.3f%%\n",
		len(coldWalls), t, u, ipcErr)
	r.layer["sampling.ff_s"] = median(ffS)
	r.layer["sampling.window_s"] = median(winS)
	if ffSecs > 0 {
		r.layer["sampling.ff_mips"] = ffInsts / ffSecs / 1e6
	}
	r.layer["sampling.detail_insts"] = detail
	r.layer["sampling.useful_detail_frac"] = useful / detail
	r.layer["sampling.ci95_pct"] = ci95
	r.layer["sampling.ipc_err_pct"] = ipcErr
	r.storeCounts(lastStores...)
	if !r.traced {
		return nil
	}
	return r.storeReplay(replayKeys, replayVals)
}

// fullDetail runs every kernel once in full detail on its long image,
// checks the run against the emulator, and reports the detailed
// throughput (sim_kips) and the engine's per-layer counters. It returns
// each kernel's IPC, the reference the sampled estimates are held to.
func (r *run) fullDetail(kernels []perf.Kernel, images map[imageSpec]*program.Image, refs map[imageSpec]reference) ([]float64, error) {
	var ipc []float64
	var retired, wall, cycles, skipped float64
	var ms0, ms1 runtime.MemStats
	perKernel := newThroughput()
	runtime.ReadMemStats(&ms0)
	for _, k := range kernels {
		s := longSpec(k)
		sp := r.tr.start(0, "engine", "full-"+k.Name)
		t := time.Now()
		core := perf.NewCore(k, images[s], engine.Options{})
		res, err := core.Run(engine.Options{MaxCycles: 2_000_000_000})
		d := time.Since(t)
		r.tr.finish(sp)
		if err != nil {
			return nil, fmt.Errorf("%s full detail: %w", k.Name, err)
		}
		ref := refs[s]
		cerr := res.Stats.Check(k.Cfg)
		r.check(cerr == nil && res.Output == ref.output && res.ExitCode == ref.exit && res.Stats.Retired == ref.insts,
			"%s full detail: output match %v, exit %d vs %d, retired %d vs %d, check %v",
			k.Name, res.Output == ref.output, res.ExitCode, ref.exit, res.Stats.Retired, ref.insts, cerr)
		st, _ := json.Marshal(res.Stats)
		fmt.Fprintf(r.digest, "%s full\n%s\n", k.Name, st)
		ipc = append(ipc, res.Stats.IPC())
		retired += float64(res.Stats.Retired)
		cycles += float64(res.Stats.Cycles)
		wall += d.Seconds()
		perKernel.add(string(k.Kind), res.Stats.Retired, d)
		if sk, ok := core.(interface{ SkipStats() uarch.SkipStats }); ok {
			skipped += float64(sk.SkipStats().SkippedCycles)
		}
	}
	runtime.ReadMemStats(&ms1)
	r.e2e["sim_kips"] = retired / wall / 1e3
	for _, k := range []string{"straight", "ss", "cg"} {
		r.layer["engine.kips."+k] = perKernel.rate(k) / 1e3
	}
	r.layer["engine.ns_per_cycle"] = wall / cycles * 1e9
	r.layer["engine.allocs_per_kinst"] = float64(ms1.Mallocs-ms0.Mallocs) / (retired / 1e3)
	r.layer["engine.skip_frac"] = skipped / cycles
	return ipc, nil
}
