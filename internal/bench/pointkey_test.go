package bench

import (
	"testing"

	"straight/internal/uarch"
	"straight/internal/workloads"
)

// TestPointKeyPinned pins the result-store key of one point per engine
// kind. Every user's store is addressed by these keys, so a change to
// how a point is hashed (which fields, in which order, for which kinds)
// must be deliberate: bump resultSchema and update the table together.
func TestPointKeyPinned(t *testing.T) {
	cases := []struct {
		p    SweepPoint
		want string
	}{
		{SSPoint("pin", "ss", workloads.MicroFib, 1, uarch.SS2Way()),
			"cecb41aafc000f9137c6923ad614721a0d6567d5737e0d98bdb310ecb15f7dda"},
		{CGPoint("pin", "cg", workloads.MicroFib, 1, uarch.CG2Way()),
			"b506c118e196a0937bef4ccb716863a595475fefaeb470d2ec44ab7c8f0973a3"},
		{StraightPoint("pin", "straight/RE+", workloads.MicroFib, 1, ModeREP, uarch.Straight2Way()),
			"aeb74bc3b63149efafee8fa46c80b76082ba36346dcbd7fa3c6423ec8ed758a2"},
		{StraightPoint("pin", "straight/RAW", workloads.MicroFib, 1, ModeRAW, uarch.Straight4Way()),
			"172e590cf778c2333ce510db8f9d58b8fd560aedbd57154fbdca0789ebac6a09"},
		{SweepPoint{Section: "pin", Label: "emu-riscv", Workload: workloads.MicroFib, Core: CoreEmuRISCV, Iters: 1},
			"3fe44efddeae797f309ec255a6139f361aee8e53da1995d4382d9a7767bc317e"},
		{SweepPoint{Section: "pin", Label: "emu-straight", Workload: workloads.MicroFib, Core: CoreEmuStraight,
			Iters: 1, Mode: ModeREP, MaxDist: 31},
			"91c690f837cf4a82dba671edcea0614c7ee82e8014de3dce9be9e2a3b96e76c3"},
	}
	for _, c := range cases {
		k, err := PointKey(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.p.Name(), err)
		}
		if got := k.String(); got != c.want {
			t.Errorf("%s: PointKey = %s, want %s", c.p.Name(), got, c.want)
		}
	}
}
