package main

import (
	"fmt"
	"path/filepath"
	"time"

	"straight/internal/bench"
	"straight/internal/cores/engine"
	"straight/internal/perf"
	"straight/internal/resultstore"
	"straight/internal/uarch"
)

// skipCount is one run's idle-skip telemetry with its cycle count.
type skipCount struct {
	uarch.SkipStats
	cycles int64
}

// skipProbe re-runs a cycle-level point directly on its core, which the
// sweep runner does not expose, to read the core's SkipStats.
func (r *run) skipProbe(p bench.SweepPoint) (skipCount, error) {
	im, err := specOf(p).build()
	if err != nil {
		return skipCount{}, err
	}
	sp := r.tr.start(0, "engine", "skip-probe")
	defer r.tr.finish(sp)
	core := perf.NewCore(perf.Kernel{Name: p.Name(), Kind: perf.CoreKind(p.Core), Cfg: p.Config}, im, engine.Options{})
	res, err := core.Run(engine.Options{MaxCycles: 2_000_000_000})
	if err != nil {
		return skipCount{}, fmt.Errorf("%s: %w", p.Name(), err)
	}
	sk, ok := core.(interface{ SkipStats() uarch.SkipStats })
	if !ok {
		return skipCount{}, fmt.Errorf("%s: core has no SkipStats", p.Name())
	}
	return skipCount{sk.SkipStats(), res.Stats.Cycles}, nil
}

// storeReplay times Put and then Get of the workload's own keys and
// payloads on a fresh store; store.{put,get}_us are the medians.
func (r *run) storeReplay(keys []resultstore.Key, vals [][]byte) error {
	st, err := openStore(filepath.Join(r.workDir, "replay.store"))
	if err != nil {
		return err
	}
	defer st.Close()
	var puts, gets []float64
	for i, k := range keys {
		sp := r.tr.start(0, "store", "put")
		t := time.Now()
		err := st.Put(k, vals[i])
		puts = append(puts, time.Since(t).Seconds()*1e6)
		r.tr.finish(sp)
		if err != nil {
			return err
		}
	}
	for i, k := range keys {
		sp := r.tr.start(0, "store", "get")
		t := time.Now()
		v, ok := st.Get(k)
		gets = append(gets, time.Since(t).Seconds()*1e6)
		r.tr.finish(sp)
		r.check(ok && string(v) == string(vals[i]), "store replay: key %s did not read back", k)
	}
	r.layer["store.put_us"] = median(puts)
	r.layer["store.get_us"] = median(gets)
	return nil
}

// storeCounts reports the summed counters of the stores one pass of the
// workload used.
func (r *run) storeCounts(stats ...resultstore.Stats) {
	var sum resultstore.Stats
	for _, s := range stats {
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.Puts += s.Puts
		sum.Compactions += s.Compactions
		sum.FileBytes += s.FileBytes
	}
	r.layer["store.hits"] = float64(sum.Hits)
	r.layer["store.misses"] = float64(sum.Misses)
	r.layer["store.puts"] = float64(sum.Puts)
	r.layer["store.compactions"] = float64(sum.Compactions)
	if sum.Puts > 0 {
		r.layer["store.bytes_per_put"] = float64(sum.FileBytes) / float64(sum.Puts)
	}
}
