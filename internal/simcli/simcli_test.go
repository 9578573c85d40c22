package simcli

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"straight/internal/uarch"
)

// wallLine is the sampled report's wall-clock line, the one output line
// that differs between two runs of the same command.
var wallLine = regexp.MustCompile(`(?m)^wall .*$`)

// commands mirrors the two sim mains: the machine each runs and its
// command-specific flags.
var commands = map[string]struct {
	policy string
	extra  func(fs *flag.FlagSet) func(*uarch.Config)
}{
	"straight-sim": {"straight", nil},
	"riscv-sim":    {"ss", NoPenaltyFlag},
}

// TestGolden runs the shared body in-process for each recorded command
// line and requires the stdout, stderr and exit code recorded from the
// standalone straight-sim and riscv-sim binaries, byte for byte (only
// the sampled report's wall-clock line is masked).
func TestGolden(t *testing.T) {
	sample := []string{"-sample", "-sample-interval", "1024", "-sample-warmup", "256", "-sample-window", "1024"}
	cases := []struct {
		golden, command string
		args            []string
	}{
		{"straight-validate-tage", "straight-sim", []string{"-validate", "-tage", "fib.sasm"}},
		{"straight-2way", "straight-sim", []string{"-config", "2way", "fib.sasm"}},
		{"riscv-2way-nopenalty", "riscv-sim", []string{"-config", "2way", "-nopenalty", "loop.rasm"}},
		{"straight-sample", "straight-sim", append(sample, "fib.sasm")},
		{"riscv-sample", "riscv-sim", append(sample, "loop.rasm")},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			args := append([]string(nil), c.args...)
			args[len(args)-1] = filepath.Join("testdata", args[len(args)-1])
			cmd := commands[c.command]
			var stdout, stderr bytes.Buffer
			code := Main(c.command, cmd.policy, args, &stdout, &stderr, cmd.extra)

			want := func(ext string) string {
				raw, err := os.ReadFile(filepath.Join("testdata", c.golden+"."+ext))
				if err != nil {
					t.Fatal(err)
				}
				return string(raw)
			}
			wantCode, err := strconv.Atoi(strings.TrimSpace(want("code")))
			if err != nil {
				t.Fatal(err)
			}
			if code != wantCode {
				t.Errorf("exit code %d, want %d", code, wantCode)
			}
			if got := stdout.String(); got != want("stdout") {
				t.Errorf("stdout:\n%s\nwant:\n%s", got, want("stdout"))
			}
			got := wallLine.ReplaceAllString(stderr.String(), "wall")
			if w := wallLine.ReplaceAllString(want("stderr"), "wall"); got != w {
				t.Errorf("stderr:\n%s\nwant:\n%s", got, w)
			}
		})
	}
}

// TestUsageErrors checks the exit codes of a missing program argument
// and of a flag the command does not register.
func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main("straight-sim", "straight", nil, &stdout, &stderr, nil); code != 2 {
		t.Errorf("no program: exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "usage: straight-sim [flags] file.s") {
		t.Errorf("no program: stderr %q lacks the usage line", stderr.String())
	}
	stderr.Reset()
	if code := Main("straight-sim", "straight", []string{"-nopenalty", "x.s"}, &stdout, &stderr, nil); code != 2 {
		t.Errorf("-nopenalty on straight-sim: exit code %d, want 2", code)
	}
}
