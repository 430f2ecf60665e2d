GO ?= go

.PHONY: check no-binaries build vet test guards race bench-check fuzz bench bench-smoke metrics-smoke restart-smoke serve docs

check: no-binaries build vet test guards race bench-check docs

# no-binaries: fail when the index holds an executable that is not a
# shell script — i.e. a built binary committed by accident.
no-binaries:
	@bad="$$(git ls-files -s | awk '$$1 == "100755" && $$4 !~ /\.sh$$/ {print $$4}')"; \
	test -z "$$bad" || { echo "committed executables that are not *.sh:"; echo "$$bad"; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# guards: the seven work and heap guards — tests that bound a mechanism
# by the bytes a call allocates or a graph holds — 20 runs each under
# GOGC=10, so a garbage-collector-timing flake shows up here instead of
# in the test run of an unrelated change.
guards:
	GOGC=10 $(GO) test -count=20 -run '^(TestNoQueryComputesAcyclicity|TestEngineMissWorkGuard|TestEngineMissAllocGuard|TestStoppedSweepWorkGuard)$$' ./internal/rspq/
	GOGC=10 $(GO) test -count=20 -run '^(TestViewExtensionWorkGuard|TestFrozenPassReadsCSR|TestBuildHeapPerEdge)$$' ./internal/graph/

# race: the first command covers the packages with shared state — the
# graph's views, the caches, the engine's batch worker pool, persistence
# and the server. The second runs the root package and internal/core
# whole, among them the lazy hardness witness's sync.Once; the
# allocation guards skip themselves under -race.
race:
	$(GO) test -race ./internal/graph/ ./internal/cache/ ./internal/metrics/ ./internal/rspq/ ./internal/persist/ ./cmd/rspqd/
	$(GO) test -race . ./internal/core/

# bench-check: the repo benchmark (bench/, its own module) still vets,
# builds against this tree and passes its unit tests. Running it is
# `bash bench/run.sh`.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# fuzz: a short deterministic pass over the fuzzers (regex parser,
# snapshot decode, WAL replay, rspqd's request decoders against
# encoding/json, every query surface — the vertex-labeled one too —
# against the exponential baseline, the graph mutators against a list
# oracle, and the graph text reader against the fmt-based parser it
# replaced) — corpus + 10s of new inputs each, the CI fuzz smoke
# test. `go test -fuzz` accepts one target per run, hence the separate
# invocations, and FuzzSolve's pattern is anchored so that it does not
# also match FuzzSolveVlg.
fuzz:
	$(GO) test ./internal/automaton/ -run '^$$' -fuzz FuzzParseRegex -fuzztime 10s
	$(GO) test ./internal/rspq/ -run '^$$' -fuzz '^FuzzSolve$$' -fuzztime 10s
	$(GO) test ./internal/rspq/ -run '^$$' -fuzz FuzzSolveVlg -fuzztime 10s
	$(GO) test ./internal/graph/ -run '^$$' -fuzz FuzzGraphMutations -fuzztime 10s
	$(GO) test ./internal/graph/ -run '^$$' -fuzz FuzzReadText -fuzztime 10s
	$(GO) test ./internal/persist/ -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 10s
	$(GO) test ./internal/persist/ -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s
	$(GO) test ./cmd/rspqd/ -run '^$$' -fuzz FuzzDecodeQuery -fuzztime 10s
	$(GO) test ./cmd/rspqd/ -run '^$$' -fuzz FuzzDecodeBatch -fuzztime 10s
	$(GO) test ./cmd/rspqd/ -run '^$$' -fuzz FuzzDecodeEdges -fuzztime 10s

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=100x -short .

# metrics-smoke: boot rspqd, answer a query, and assert the /metrics
# exposition reports it and agrees with /stats — the CI observability
# smoke test.
metrics-smoke:
	bash scripts/metrics_smoke.sh

# restart-smoke: boot rspqd with a data dir, mutate the graph over
# HTTP, kill -9 the process, reboot on the same dir and assert the
# recovered epoch/edge count/query answers match — the CI durability
# smoke test.
restart-smoke:
	bash scripts/restart_smoke.sh

serve:
	$(GO) run ./cmd/rspqd -gen 400 -pattern 'a*(bb+|())c*'

# docs: formatting, vet and doc-reference hygiene — the same gate the
# CI docs job runs.
docs:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo 'gofmt: files need formatting'; exit 1; }
	$(GO) vet ./...
	$(GO) run ./cmd/docscheck README.md docs/ARCHITECTURE.md experiments_test.go bench_test.go
