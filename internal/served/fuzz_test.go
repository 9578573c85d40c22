package served

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"straight/internal/bench"
)

// FuzzJobRequest feeds arbitrary bytes to the daemon's job decoder, the
// first code a POST /v1/run body reaches. It must never panic; an
// accepted job holds 1 to maxJobPoints points, every point names itself
// and derives its result key or reports why not (what the request path
// does before simulating), and the job re-encodes to bytes that decode
// to the same job.
func FuzzJobRequest(f *testing.F) {
	seed, err := json.Marshal(JobRequest{Points: testPoints()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"points":[]}`))
	f.Add([]byte(`{"points":null}`))
	f.Add([]byte(`{"points":[{"Core":"emu-riscv","Workload":"micro-fib","Iters":1}]} trailing`))
	f.Add([]byte(`{"points":[{"Config":{"L3":null,"ROBSize":-1}}]}`))
	f.Add([]byte(`{"points":[` + strings.Repeat(`{},`, 8) + `{}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		body := http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(data)), maxJobBytes)
		req, err := decodeJob(body)
		if err != nil {
			return
		}
		if n := len(req.Points); n == 0 || n > maxJobPoints {
			t.Fatalf("accepted a job of %d points", n)
		}
		for _, p := range req.Points {
			_ = p.Name()
			_, _ = bench.PointKey(p)
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted job does not re-encode: %v", err)
		}
		again, err := decodeJob(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-encoded job refused: %v", err)
		}
		raw2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("job is not a fixed point of decode/encode:\n%s\n%s", raw, raw2)
		}
	})
}
