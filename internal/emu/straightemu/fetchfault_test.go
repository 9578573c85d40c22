package straightemu

import (
	"errors"
	"testing"

	"straight/internal/program"
	"straight/internal/sasm"
)

// TestFetchFaults pins every fault the instruction-fetch path can raise —
// misaligned PC, PC outside text (below it and past its end), and an
// undecodable text word — down to the fault's kind, PC, instruction
// count and message, so a faster fetch path must reproduce them exactly.
func TestFetchFaults(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		edit  func(im *program.Image)
		kind  FaultKind
		pc    uint32
		count uint64
		msg   string
		// text, when set, is the full Error() string.
		text string
	}{
		{
			name: "misaligned-pc",
			src:  "main:\n ADDi [0], 0\n",
			edit: func(im *program.Image) { im.Entry += 2 },
			kind: FaultFetch, pc: 0x1002, count: 0,
			msg:  "program: misaligned instruction fetch at 0x00001002",
			text: "straightemu: fetch fault at pc=0x00001002 insn#0: program: misaligned instruction fetch at 0x00001002",
		},
		{
			name: "below-text",
			src:  "main:\n JR [0]\n",
			kind: FaultFetch, pc: 0, count: 1,
			msg: "program: instruction fetch outside text at 0x00000000",
		},
		{
			name: "past-text-end",
			src:  "main:\n ADDi [0], 0\n ADDi [0], 0\n",
			kind: FaultFetch, pc: 0x1008, count: 2,
			msg: "program: instruction fetch outside text at 0x00001008",
		},
		{
			name: "undecodable-word",
			src:  "main:\n ADDi [0], 0\n",
			edit: func(im *program.Image) { im.Text = append(im.Text, 0xFF000000) },
			kind: FaultDecode, pc: 0x1004, count: 1,
			msg: "straight: decode: invalid opcode byte 0xff",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			im, err := sasm.Assemble(c.src)
			if err != nil {
				t.Fatal(err)
			}
			if c.edit != nil {
				c.edit(im)
			}
			m := New(im)
			_, err = m.Run(16)
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("Run: %v, want a *Fault", err)
			}
			if f.Kind != c.kind || f.PC != c.pc || f.Count != c.count || f.Msg != c.msg {
				t.Errorf("fault = {%s pc=%#x count=%d %q}, want {%s pc=%#x count=%d %q}",
					f.Kind, f.PC, f.Count, f.Msg, c.kind, c.pc, c.count, c.msg)
			}
			if c.text != "" && f.Error() != c.text {
				t.Errorf("Error() = %q, want %q", f.Error(), c.text)
			}
		})
	}
}
