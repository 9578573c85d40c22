package uarch

import (
	"math/rand"
	"testing"
)

// refFold is the reference fold: the most recent n history bits,
// walked one at a time, with bit i XORed into output bit i mod bits.
// TAGE keeps the same values incrementally (tageFolds.push).
func refFold(h *tageHistory, n, bits int) uint16 {
	var f uint32
	for i := 0; i < n; i++ {
		bit := uint32(h[i/64]>>(uint(i)%64)) & 1
		f ^= bit << (uint(i) % uint(bits))
	}
	return uint16(f)
}

func checkFolds(t *testing.T, step int, tg *TAGE) {
	t.Helper()
	for i, n := range tageHistLens {
		for k, w := range tageFoldBits {
			if got, want := tg.folds[i][k], refFold(&tg.hist, n, int(w)); got != want {
				t.Fatalf("step %d: fold[%d][%d] (len %d, width %d) = %#x, reference %#x", step, i, k, n, w, got, want)
			}
		}
	}
}

// TestTAGEFoldsMatchReference drives the predictor through random
// Predict/Update/Recover sequences with speculation depth, as the cores
// do, and checks every incremental fold against the bit-loop reference
// after each history push or rewind.
func TestTAGEFoldsMatchReference(t *testing.T) {
	const steps = 120_000
	rng := rand.New(rand.NewSource(7))
	tg := NewTAGE()
	type inflight struct {
		pc   uint32
		id   uint64
		pred bool
	}
	var window []inflight
	recovers := 0
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(10); {
		case r < 6 || len(window) == 0:
			pc := uint32(rng.Intn(64)) << 2
			pred, id := tg.Predict(pc)
			window = append(window, inflight{pc, id, pred})
		case r < 9:
			// Resolve the oldest branch; a misprediction squashes the
			// younger ones and rewinds the history.
			b := window[0]
			taken := b.pred
			if rng.Intn(8) == 0 {
				taken = !taken
			}
			tg.Update(b.pc, taken, b.id)
			if taken != b.pred {
				tg.Recover(b.id, taken)
				window = window[:0]
				recovers++
			} else {
				window = window[1:]
			}
		default:
			// Recover at a random in-flight branch (a younger squash
			// reached before the oldest resolves).
			j := rng.Intn(len(window))
			tg.Recover(window[j].id, rng.Intn(2) == 0)
			window = window[:j]
			recovers++
		}
		checkFolds(t, step, tg)
	}
	if recovers < steps/20 {
		t.Fatalf("only %d recoveries in %d steps", recovers, steps)
	}
	tg.Reset()
	checkFolds(t, steps, tg)
}

// BenchmarkTAGEPredict measures one predict+update, plus the recovery
// on a misprediction, over 32 branches: loop exits every 8th
// iteration, branches correlated with the outcome two branches back,
// and biased branches, with 1/32 of outcomes flipped at random. The
// mispredict rate lands near 5%.
func BenchmarkTAGEPredict(b *testing.B) {
	const branches = 32
	rng := rand.New(rand.NewSource(1))
	noise := make([]bool, 1<<16)
	for i := range noise {
		noise[i] = rng.Intn(32) == 0
	}
	tg := NewTAGE()
	var h uint32
	mispredicts := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := uint32(i) % branches
		pc := 0x1000 + br*4
		var taken bool
		switch br % 3 {
		case 0:
			taken = (i/branches)%8 != 7
		case 1:
			taken = h>>1&1 == 1
		default:
			taken = br%5 != 0
		}
		taken = taken != noise[i&(len(noise)-1)]
		pred, id := tg.Predict(pc)
		tg.Update(pc, taken, id)
		if pred != taken {
			tg.Recover(id, taken)
			mispredicts++
		}
		h = h<<1 | uint32(b2u(taken))
	}
	b.ReportMetric(float64(mispredicts)/float64(b.N), "mispredict/op")
}
