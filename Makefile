GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test race vet fuzz-smoke bench chaos bench-check mutants ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

## fuzz-smoke gives each fuzz target a short budget on top of its seeded
## corpus under testdata/fuzz/. Crashes are minimized into those corpora.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParse$$ -fuzztime $(FUZZTIME) ./internal/graphdb/
	$(GO) test -run '^$$' -fuzz FuzzParse$$ -fuzztime $(FUZZTIME) ./internal/query/
	$(GO) test -run '^$$' -fuzz FuzzParseUnion -fuzztime $(FUZZTIME) ./internal/query/
	$(GO) test -run '^$$' -fuzz FuzzParseCompile -fuzztime $(FUZZTIME) ./internal/rex/
	$(GO) test -run '^$$' -fuzz FuzzSnapshotRoundTrip -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -run '^$$' -fuzz FuzzDigestCodec -fuzztime $(FUZZTIME) ./internal/integrity/
	$(GO) test -run '^$$' -fuzz FuzzPlanAnswers -fuzztime $(FUZZTIME) ./internal/cq/
	$(GO) test -run '^$$' -fuzz FuzzSet -fuzztime $(FUZZTIME) ./internal/rowset/

bench:
	$(GO) test -bench=. -benchmem ./...

## chaos rebuilds the fault-injection build (-tags faultinject) and runs
## the deterministic chaos suite under the race detector: injected
## persist/cache/pool/core faults must surface as typed errors with no
## corruption and no goroutine leaks.
chaos:
	$(GO) test -race -tags faultinject ./internal/faultinject/ ./internal/persist/ ./internal/server/... ./internal/client/ ./internal/govern/ ./internal/cluster/
	$(GO) test -race -tags faultinject -run TestChaos ./internal/core/

## bench-check builds, vets and tests the benchmark's nested module
## (bench/go.mod, `replace ecrpq => ../`). The root `go test ./...` does not
## see it, so without this a server or client refactor can break what
## BENCHMARK.json runs and nothing notices.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

## mutants applies each patch of testdata/mutants/ to a copy of the tree
## and requires the tests its header names (Package:, Run:) to fail there:
## a fix whose test stops catching its mutant fails this target.
## TestArchitecture/mutants-apply checks that every patch still applies.
mutants:
	@for p in testdata/mutants/*.patch; do \
		pkg=$$(sed -n 's/^Package: //p' $$p); run=$$(sed -n 's/^Run: //p' $$p); tmp=$$(mktemp -d); \
		tar -c --exclude=./.git --exclude=./.bench_build . | tar -x -C $$tmp; \
		if ! (cd $$tmp && git apply $(CURDIR)/$$p); then rm -rf $$tmp; echo "$$p: does not apply"; exit 1; fi; \
		out=$$(cd $$tmp && $(GO) test -count=1 -run "$$run" $$pkg 2>&1); rm -rf $$tmp; \
		case "$$out" in *"--- FAIL"*) echo "$$p: caught by $$run";; \
		*) echo "$$out" | tail -5; echo "$$p: not caught by $$run in $$pkg"; exit 1;; esac; \
	done

## ci mirrors the GitHub Actions jobs. Every static check is a test that
## `test` runs: TestArchitecture (syntactic rules over the source and the
## module analyzers of internal/lint) and the TestCeilings tables of
## internal/core, internal/server and internal/govern (allocation and byte
## ceilings).
ci: build vet test race chaos bench-check mutants
