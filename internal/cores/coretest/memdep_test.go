package coretest_test

import (
	"fmt"
	"testing"

	"straight/internal/backend/straightbe"
	"straight/internal/ir"
	"straight/internal/irgen"
	"straight/internal/minic"
	"straight/internal/uarch"
)

// storeThenLoad stores through an address that waits on a divide and
// then loads the same word through an address known at once: every
// iteration's load truly depends on the store just before it, and a
// load that speculates past the unresolved store address violates.
const storeThenLoad = `
int a[64];
int div;
int main() {
    int i, s = 0;
    div = 1;
    for (i = 0; i < %d; i++) {
        a[(i / div) & 63] = i;
        s += a[i & 63];
    }
    putint(s); putchar(10);
    return 0;
}
`

// TestDependentLoadStaysConservative: after its first violation, a
// load that keeps forwarding from the older store it depends on must
// stay predicted "wait" across every later commit, so a loop of n
// iterations violates a handful of times, not once every few
// iterations. A load that forwarded did depend on a store, so its
// commit is no evidence of independence and must not decay the
// predictor entry.
func TestDependentLoadStaysConservative(t *testing.T) {
	const n = 600
	file, err := minic.Parse(fmt.Sprintf(storeThenLoad, n))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := irgen.Build(file)
	if err != nil {
		t.Fatal(err)
	}
	ir.OptimizeModule(mod)
	straightIm := buildSTRAIGHT(t, mod, straightbe.Options{MaxDistance: 31, RedundancyElim: true})
	for _, tc := range []struct {
		name string
		st   uarch.Stats
	}{
		{"ss-4way", runSS(t, uarch.SS4Way(), buildRISCV(t, mod)).Stats},
		{"straight-4way", runStraight(t, uarch.Straight4Way(), straightIm).Stats},
	} {
		st := &tc.st
		t.Logf("%s: %d violations, %d forwards, %d loads", tc.name, st.MemDepViolations, st.StoreForwards, st.Loads)
		if st.MemDepViolations == 0 || st.StoreForwards < n/4 {
			t.Errorf("%s: %d violations and %d store forwards over %d iterations: the loop no longer exercises a dependent load",
				tc.name, st.MemDepViolations, st.StoreForwards, n)
		}
		if st.MemDepViolations > 4 {
			t.Errorf("%s: %d memory-dependence violations over %d iterations: the dependent load re-speculated", tc.name, st.MemDepViolations, n)
		}
	}
}
