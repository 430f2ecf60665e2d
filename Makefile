GO ?= go

.PHONY: check no-binaries build vet test race bench-check fuzz bench bench-smoke metrics-smoke restart-smoke serve docs

check: no-binaries build vet test race bench-check

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

# race: the second command runs the sweep suites under both phase shapes
# of the round drivers — GOMAXPROCS 1 takes the inline phases, 2 the
# goroutine fan-out; TestStoppedSweepEquivalence among them covers the
# probe the drivers run at the barrier to stop a sweep. The third covers the lazy hardness witness's
# sync.Once, reached only through the root package and internal/core.
race:
	$(GO) test -race ./internal/graph/ ./internal/cache/ ./internal/metrics/ ./internal/rspq/ ./internal/persist/ ./cmd/rspqd/
	$(GO) test -race -cpu 1,2 -run 'Equivalence|Equality|Sharded|Distance|Exchange|Sweep' ./internal/rspq/
	$(GO) test -race -run 'HardnessWitness|Compile|Concurrent' . ./internal/core/

# bench-check: the repo benchmark (bench/, its own module) still vets,
# builds against this tree and passes its unit tests. Running it is
# `bash bench/run.sh`.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# fuzz: a short deterministic pass over the fuzzers (regex parser,
# snapshot decode, WAL replay) — corpus + 10s of new inputs each, the
# CI fuzz smoke test. `go test -fuzz` accepts one target per run, hence
# the separate invocations.
fuzz:
	$(GO) test ./internal/automaton/ -run '^$$' -fuzz FuzzParseRegex -fuzztime 10s
	$(GO) test ./internal/persist/ -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 10s
	$(GO) test ./internal/persist/ -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s

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
	$(GO) run ./cmd/docscheck README.md docs/ARCHITECTURE.md cmd/rspqbench/main.go bench_test.go
