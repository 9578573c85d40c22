.PHONY: build test verify lint staticcheck fuzz fuzz-diff experiments bench bench-update

build:
	go build ./...

test:
	go test ./...

# Full tier-1 verification: build + vet + project analyzers
# (+ staticcheck when reachable) + tests + race-checked bench.
verify:
	sh scripts/verify.sh

# Project analyzers (DESIGN.md §13): resetcomplete, hotpathalloc,
# statscoverage, tracerguard via the vet -vettool protocol.
lint:
	go build -o bin/straight-lint ./cmd/straight-lint
	go vet -vettool=bin/straight-lint ./...

# Run staticcheck alone, at the version pinned in
# scripts/staticcheck-version (the one tracked pin; verify.sh and CI
# read the same file).
staticcheck:
	go run "honnef.co/go/tools/cmd/staticcheck@$$(cat scripts/staticcheck-version)" ./...

# Short fuzzing pass over the instruction decoder, the assembler, the
# sampler's decoders of the entries it reads back from the result store
# (cached fast-forward sequences and window payloads), the straightd job
# decoder, and the differential lockstep harness. Fast-forward seeds
# carry whole checkpoints, so minimizing each new input is capped at 100
# executions instead of the default 60 s.
fuzz:
	go test -run=NONE -fuzz=FuzzDecode -fuzztime=30s ./internal/isa/straight
	go test -run=NONE -fuzz=FuzzAssemble -fuzztime=30s ./internal/sasm
	go test -run=NONE -fuzz=FuzzDecodeFFSeq -fuzztime=30s -fuzzminimizetime=100x ./internal/sampling
	go test -run=NONE -fuzz=FuzzDecodeWindow -fuzztime=30s ./internal/sampling
	go test -run=NONE -fuzz=FuzzJobRequest -fuzztime=30s ./internal/served
	go test -run=NONE -fuzz=FuzzLockstep -fuzztime=10s ./internal/fuzzgen

# Randomized differential co-simulation sweep (see DESIGN.md §10).
fuzz-diff:
	go run ./cmd/straight-fuzz -seeds 500

# Reproduce every paper figure at the default scale, in parallel.
experiments:
	go run ./cmd/experiments -j 0

# Simulation-kernel throughput: alloc budget + KIPS benchmarks + the
# regression check against BENCH_simkernel.json in both stepping modes
# (see DESIGN.md §11-12).
bench:
	sh scripts/bench.sh

# Re-record the KIPS baseline (new reference host or intentional change).
bench-update:
	sh scripts/bench.sh update
