package sampling

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"straight/internal/uarch"
)

// Metric is a ratio estimate over sample windows with its sampling
// error: StdErr is the standard error of the ratio (Taylor-linearized
// ratio-estimator variance), CI95 the half-width of the 95% confidence
// interval (1.96·StdErr, normal approximation), RelCI95 that half-width
// relative to the mean — the "documented error bound" the accuracy
// tests assert against.
type Metric struct {
	Mean    float64 `json:"mean"`
	StdErr  float64 `json:"stderr"`
	CI95    float64 `json:"ci95"`
	RelCI95 float64 `json:"rel_ci95"`
}

// metricRatio estimates R = Σnum / Σden with the classical ratio
// estimator. Each window contributes (num_i, den_i) — cycles over
// retired instructions for CPI, stall cycles over cycles for stall
// shares — so windows are weighted by how much they measured: a
// truncated tail window that retired 30 instructions moves the estimate
// 30 instructions' worth, where an equal-weighted mean of per-window
// ratios would let it swamp the estimate (CPI in a short slow tail can
// be 10× the body's). The error term uses the linearized residuals
// e_i = num_i − R·den_i: Var(R) ≈ n/(n−1) · Σe_i² / (Σden)².
func metricRatio(nums, dens []float64) Metric {
	var sn, sd float64
	for i := range nums {
		sn += nums[i]
		sd += dens[i]
	}
	if sd == 0 {
		return Metric{}
	}
	r := sn / sd
	m := Metric{Mean: r}
	n := float64(len(nums))
	if len(nums) > 1 {
		var ss float64
		for i := range nums {
			e := nums[i] - r*dens[i]
			ss += e * e
		}
		m.StdErr = math.Sqrt(n/(n-1)*ss) / sd
		m.CI95 = 1.96 * m.StdErr
		if r != 0 {
			m.RelCI95 = m.CI95 / math.Abs(r)
		}
	}
	return m
}

// WindowResult is one measured sample window.
type WindowResult struct {
	// Index is the window's position in the interval plan.
	Index int `json:"index"`
	// Start is the retired-instruction count at the window's checkpoint.
	Start uint64 `json:"start"`
	// Key is the window's content address (checkpoint hash + config +
	// plan) in the result store.
	Key string `json:"key"`
	// WarmupRetired is how many instructions the discarded warmup
	// actually retired (usually Plan.Warmup, less near program exit).
	WarmupRetired uint64 `json:"warmup_retired"`
	// Retired/Cycles/CPI are the measured window's contribution. A
	// window the program exited during warmup has Retired 0 and is
	// excluded from reconstruction.
	Retired uint64  `json:"retired"`
	Cycles  int64   `json:"cycles"`
	CPI     float64 `json:"cpi"`
	// Stats is the full counter delta for the measured span. It is a
	// window delta, not a finished run: uarch.Stats.Check invariants
	// like retired ≤ fetched need not hold (see uarch.Stats.Sub).
	Stats uarch.Stats `json:"stats"`
	// Cached reports that this window was served from the result store.
	// Excluded from the JSON encoding (and hence the fingerprint): a
	// warm re-run must produce byte-identical reports.
	Cached bool `json:"-"`
}

// StallShare is one stall cause's share of measured cycles.
type StallShare struct {
	Name string `json:"name"`
	// Share is the cause's share of all measured cycles (sum of stall
	// cycles / sum of window cycles — the ratio estimate's mean).
	Share float64 `json:"share"`
	// PerWindow is the full ratio estimate with its confidence interval,
	// symmetric with the CPI estimate.
	PerWindow Metric `json:"per_window"`
}

// Timing is the wall-clock accounting of a sampled run. It is excluded
// from Report.Fingerprint: timings differ run to run by nature.
type Timing struct {
	// FFSeconds is the wall time from the start of the run until the
	// fast-forward finished. Windows simulate while the fast-forward
	// runs, so this span includes window work, and any time the
	// fast-forward waited for a free worker. Zero on a fully-cached run.
	FFSeconds float64 `json:"ff_seconds"`
	// WindowSeconds is WallSeconds − FFSeconds: the tail of window
	// simulation that the fast-forward did not hide.
	WindowSeconds float64 `json:"window_seconds"`
	WallSeconds   float64 `json:"wall_seconds"`
	// EffectiveKIPS is total program instructions divided by total wall
	// time — the headline "effective simulation speed".
	EffectiveKIPS float64 `json:"effective_kips"`
	// StoreHits counts windows served from the result store.
	StoreHits int `json:"store_hits"`
}

// Report is the outcome of one sampled run.
type Report struct {
	Policy string `json:"policy"`
	Config string `json:"config"`
	Plan   Plan   `json:"plan"`

	// TotalInsts is the program's true retired-instruction count (known
	// exactly: the fast-forward executes every instruction). ExitCode is
	// the program's architectural exit code.
	TotalInsts uint64 `json:"total_insts"`
	ExitCode   int32  `json:"exit_code"`

	Windows []WindowResult `json:"windows"`
	// MeasuredInsts/MeasuredCycles sum the sample windows; Coverage is
	// the measured fraction of the program.
	MeasuredInsts  uint64  `json:"measured_insts"`
	MeasuredCycles int64   `json:"measured_cycles"`
	Coverage       float64 `json:"coverage"`

	// CPI is the equal-weighted mean of window CPIs with its confidence
	// interval; IPC its reciprocal. To first order the relative CI of
	// IPC equals CPI.RelCI95 (delta method), which is the error bound
	// quoted for both.
	CPI Metric  `json:"cpi"`
	IPC float64 `json:"ipc"`
	// EstimatedCycles extrapolates whole-program cycles: TotalInsts ×
	// mean CPI, rounded.
	EstimatedCycles int64 `json:"estimated_cycles"`

	// StallShares breaks measured cycles down by dispatch-stall cause,
	// in a fixed order (deterministic reports).
	StallShares []StallShare `json:"stall_shares"`

	Timing Timing `json:"timing"`
}

// reconstruct builds the whole-program estimate from the measured
// windows.
func reconstruct(t *Target, plan Plan, total uint64, exitCode int32, windows []WindowResult) *Report {
	rep := &Report{
		Policy:     t.Policy,
		Config:     t.Cfg.Name,
		Plan:       plan,
		TotalInsts: total,
		ExitCode:   exitCode,
		Windows:    windows,
	}
	var cycles, retired []float64
	for _, w := range windows {
		rep.MeasuredInsts += w.Retired
		rep.MeasuredCycles += w.Cycles
		if w.Retired > 0 {
			cycles = append(cycles, float64(w.Cycles))
			retired = append(retired, float64(w.Retired))
		}
	}
	if total > 0 {
		rep.Coverage = float64(rep.MeasuredInsts) / float64(total)
	}
	rep.CPI = metricRatio(cycles, retired)
	if rep.CPI.Mean > 0 {
		rep.IPC = 1 / rep.CPI.Mean
		rep.EstimatedCycles = int64(math.Round(float64(total) * rep.CPI.Mean))
	}

	// Stall shares, in the fixed order of uarch.Stats.String.
	causes := []struct {
		name string
		get  func(*uarch.Stats) int64
	}{
		{"rob", func(s *uarch.Stats) int64 { return s.StallROBFull }},
		{"iq", func(s *uarch.Stats) int64 { return s.StallIQFull }},
		{"lsq", func(s *uarch.Stats) int64 { return s.StallLSQFull }},
		{"freelist", func(s *uarch.Stats) int64 { return s.StallFreeList }},
		{"frontend", func(s *uarch.Stats) int64 { return s.StallFrontEnd }},
		{"spadd", func(s *uarch.Stats) int64 { return s.StallSPAddLimit }},
		{"recovery", func(s *uarch.Stats) int64 { return s.RecoveryStall }},
	}
	for _, c := range causes {
		sh := StallShare{Name: c.name}
		var stall, cyc []float64
		for i := range windows {
			w := &windows[i]
			if w.Retired == 0 || w.Cycles <= 0 {
				continue
			}
			stall = append(stall, float64(c.get(&w.Stats)))
			cyc = append(cyc, float64(w.Cycles))
		}
		sh.PerWindow = metricRatio(stall, cyc)
		sh.Share = sh.PerWindow.Mean
		rep.StallShares = append(rep.StallShares, sh)
	}
	return rep
}

// Fingerprint returns the deterministic byte encoding of the report:
// the full JSON with the timing section zeroed. Two runs with the same
// target and plan — at any worker count, cold or store-warm — produce
// identical fingerprints (asserted by TestSampledDeterminism).
func (r *Report) Fingerprint() []byte {
	cp := *r
	cp.Timing = Timing{}
	b, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		// Report marshaling cannot fail: all fields are plain data.
		panic(fmt.Sprintf("sampling: fingerprint: %v", err))
	}
	return b
}

// String renders a compact human-readable summary (the CLIs' -sample
// output).
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sampled %s/%s: %d insts, %d windows (interval=%d warmup=%d window=%d, coverage %.2f%%)\n",
		r.Policy, r.Config, r.TotalInsts, len(r.Windows), r.Plan.Interval, r.Plan.Warmup, r.Plan.Window, 100*r.Coverage)
	fmt.Fprintf(&b, "IPC=%.4f ±%.2f%% (95%% CI)  CPI=%.4f±%.4f  est cycles=%d  exit=%d\n",
		r.IPC, 100*r.CPI.RelCI95, r.CPI.Mean, r.CPI.CI95, r.EstimatedCycles, r.ExitCode)
	b.WriteString("stall shares:")
	for _, s := range r.StallShares {
		if s.Share != 0 {
			fmt.Fprintf(&b, " %s=%.1f%%", s.Name, 100*s.Share)
		}
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "wall %.3fs (ff %.3fs + window tail %.3fs), effective %.0f KIPS, store hits %d/%d\n",
		r.Timing.WallSeconds, r.Timing.FFSeconds, r.Timing.WindowSeconds, r.Timing.EffectiveKIPS,
		r.Timing.StoreHits, len(r.Windows))
	return b.String()
}
