// Command perfbench is the repository's benchmark: it drives the
// compiler, emulators, cycle engine, sampling, sweep runner, result
// store and daemon from outside, through their exported functions, on
// one of three workloads, checks every simulated output, and prints its
// metrics as one JSON line. See README.md for the workloads, the
// metrics and the layer-to-metric map.
//
//	perfbench --workload sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer name every metric the benchmark reports, with
// its unit, in print order; BENCHMARK.json lists the same names.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"sim_kips", "kinst/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"warm_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"compile.parse_ms", "ms"},
	{"compile.irgen_ms", "ms"},
	{"compile.opt_ms", "ms"},
	{"compile.straightbe_ms", "ms"},
	{"compile.riscvbe_ms", "ms"},
	{"compile.sasm_ms", "ms"},
	{"compile.rasm_ms", "ms"},
	{"compile.sverify_ms", "ms"},
	{"compile.text_words.straight", "count"},
	{"compile.text_words.riscv", "count"},
	{"emu.straight_mips", "Minst/s"},
	{"emu.riscv_mips", "Minst/s"},
	{"engine.kips.straight", "kinst/s"},
	{"engine.kips.ss", "kinst/s"},
	{"engine.kips.cg", "kinst/s"},
	{"engine.ns_per_cycle", "ns"},
	{"engine.allocs_per_kinst", "count"},
	{"engine.skip_frac", "fraction"},
	{"engine.stage_share.fetch", "fraction"},
	{"engine.stage_share.dispatch", "fraction"},
	{"engine.stage_share.issue", "fraction"},
	{"engine.stage_share.complete", "fraction"},
	{"engine.stage_share.commit", "fraction"},
	{"engine.duffcopy_share", "fraction"},
	{"engine.gc_share", "fraction"},
	{"sampling.ff_s", "s"},
	{"sampling.ff_mips", "Minst/s"},
	{"sampling.window_s", "s"},
	{"sampling.detail_insts", "count"},
	{"sampling.useful_detail_frac", "fraction"},
	{"sampling.ci95_pct", "%"},
	{"sampling.ipc_err_pct", "%"},
	{"bench.worker_busy_frac", "fraction"},
	{"bench.straggler_frac", "fraction"},
	{"bench.build_cache_hit_frac", "fraction"},
	{"bench.parallel_speedup", "ratio"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.puts", "count"},
	{"store.bytes_per_put", "bytes"},
	{"store.compactions", "count"},
	{"served.wait_ms", "ms"},
	{"served.coalesced_frac", "fraction"},
	{"served.cached_frac", "fraction"},
	{"cpu_share.compile", "fraction"},
	{"cpu_share.emu", "fraction"},
	{"cpu_share.engine", "fraction"},
	{"cpu_share.sampling", "fraction"},
	{"cpu_share.bench", "fraction"},
	{"cpu_share.store", "fraction"},
	{"cpu_share.served", "fraction"},
	{"cpu_share.runtime", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// Each workload compiles its images at least minSetupReps times and for
// at least minSetupTime; setup_s is the median repetition. Traced runs
// time the compiler stage by stage minSetupReps times.
const (
	minSetupReps = 5
	minSetupTime = time.Second
)

// run is the state one benchmark invocation shares with its workload.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	workDir  string // scratch space inside the checkout, removed at exit

	// tr is nil on untraced runs and during the untraced passes of a
	// traced run.
	tr *tracer

	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	digest            hash.Hash
	workers           map[string]int
}

// check counts one checked operation and reports it when it failed.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 20 {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
		}
	}
}

// workloadFns maps --workload to the function that runs it.
var workloadFns = map[string]func(*run) error{
	"sweep":   runSweep,
	"sampled": runSampled,
	"daemon":  runDaemon,
}

func main() {
	workload := flag.String("workload", "", "workload to run: sweep, sampled or daemon")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long the measured part of the run lasts")
	trace := flag.Int("trace", 0, "1 records spans and a CPU profile and reports per-layer metrics")
	flag.Parse()
	fn, ok := workloadFns[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sweep|sampled|daemon --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fatal(err)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		workDir:  dir,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		digest:   sha256.New(),
		workers:  map[string]int{},
	}
	if r.traced {
		r.tr = newTracer()
	}
	err = fn(r)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	if r.traced {
		if err := r.tr.write(filepath.Join(".bench_build", "perfbench-spans-"+r.workload+".json")); err != nil {
			fatal(err)
		}
		self := selfByLayer(r.tr.closed())
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		fmt.Print("span self time:")
		for _, l := range layers {
			fmt.Printf(" %s=%.3fs", l, self[l].Seconds())
		}
		fmt.Println()
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()
	r.report()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// errStop ends a measured loop early without failing the run; the pass
// returning it has already counted its failure.
var errStop = errors.New("stop measuring")

// measure repeats pass until the run's time is up, at least once. On a
// traced run the passes alternate: one untraced (no spans, no profiler),
// then one under spans and the CPU profiler. Host speed drifts over tens
// of seconds, and alternating makes the drift hit both kinds alike;
// trace.overhead_frac compares their median wall times.
func (r *run) measure(pass func() error) error {
	tr := r.tr
	defer func() { r.tr = tr }()
	minPasses := 1
	if r.traced {
		minPasses = 2
	}
	var plain, traced []float64
	var samples []sample
	deadline := time.Now().Add(r.seconds)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		on := r.traced && i%2 == 1
		var prof bytes.Buffer
		r.tr = nil
		if on {
			r.tr = tr
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return err
			}
		}
		t := time.Now()
		err := pass()
		d := time.Since(t).Seconds()
		if !on {
			plain = append(plain, d)
		} else {
			pprof.StopCPUProfile()
			traced = append(traced, d)
			s, derr := decodeProfile(prof.Bytes())
			if derr != nil {
				return derr
			}
			samples = append(samples, s...)
			name := fmt.Sprintf("perfbench-%s-%d.pprof", r.workload, len(traced))
			if werr := os.WriteFile(filepath.Join(".bench_build", name), prof.Bytes(), 0o644); werr != nil {
				return werr
			}
		}
		if err == errStop {
			break
		}
		if err != nil {
			return err
		}
	}
	if r.traced {
		r.layer["trace.overhead_frac"] = median(traced)/median(plain) - 1
		r.profileShares(samples)
	}
	return nil
}

// profileShares folds the traced passes' CPU profile samples into the
// per-layer CPU shares and the engine's stage shares.
func (r *run) profileShares(samples []sample) {
	b := bucket(samples)
	for _, l := range []string{"compile", "emu", "engine", "sampling", "bench", "store", "served", "runtime"} {
		r.layer["cpu_share."+l] = share(b.layer[l], b.total)
	}
	for _, st := range []string{"fetch", "dispatch", "issue", "complete", "commit"} {
		r.layer["engine.stage_share."+st] = share(b.stage[st], b.engine)
	}
	r.layer["engine.duffcopy_share"] = share(b.duffcopy, b.total)
	r.layer["engine.gc_share"] = share(b.gc, b.total)
	fmt.Printf("profile: %d samples, %d in the engine\n", b.total, b.engine)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// host describes the machine the numbers were measured on; numbers from
// different hosts must not be compared.
func (r *run) host() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds.Seconds(),
		"traced":     r.traced,
		"workers":    r.workers,
	}
}

// report prints every metric by name with its unit, the host
// fingerprint and the simulated-statistics digest, then the result line
// a harness reads (always last).
func (r *run) report() {
	set, all := endToEnd, r.e2e
	if r.traced {
		set, all = perLayer, r.layer
		for _, m := range endToEnd {
			fmt.Printf("%-30s %14.6g %s (traced)\n", m.name, r.e2e[m.name], m.unit)
		}
	}
	metrics := map[string]Metric{}
	for _, m := range set {
		v := all[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = Metric{Value: v, Unit: m.unit}
		fmt.Printf("%-30s %14.6g %s\n", m.name, v, m.unit)
	}
	if extra := unknownKeys(all, set); len(extra) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: internal error: unlisted metrics %v\n", extra)
		os.Exit(1)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("ops_failed_frac %.6g (%d of %d)\n", frac, r.failed, r.attempted)
	hb, _ := json.Marshal(r.host())
	fmt.Printf("host: %s\n", hb)
	fmt.Printf("digest: %x\n", r.digest.Sum(nil))
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	fmt.Println(string(line))
}

func unknownKeys(m map[string]float64, set []struct{ name, unit string }) []string {
	known := map[string]bool{}
	for _, s := range set {
		known[s.name] = true
	}
	var out []string
	for k := range m {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
