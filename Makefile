GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test race lint lint-json vet fuzz-smoke bench server-test chaos trace-gate govern-gate stream-gate sweep-gate generic-gate join-gate front-gate spine-gate write-gate cluster-gate plan-gate integrity-gate bench-check ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## lint runs the repo-specific analyzers (run `ecrpq-lint -list` for the
## full set: per-package walkers plus the module-wide dataflow checks
## lockorder, governcharge and ctxpoll). Exit 0 means the tree is clean.
lint:
	$(GO) run ./cmd/ecrpq-lint ./...

## lint-json emits findings as a JSON array on stdout (plain findings
## still go to stderr for log scrapers); used by the CI lint job.
lint-json:
	$(GO) run ./cmd/ecrpq-lint -json ./...

vet:
	$(GO) vet ./...

## fuzz-smoke gives each fuzz target a short budget on top of its seeded
## corpus under testdata/fuzz/. Crashes are minimized into those corpora.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/graphdb/
	$(GO) test -run '^$$' -fuzz FuzzParse$$ -fuzztime $(FUZZTIME) ./internal/query/
	$(GO) test -run '^$$' -fuzz FuzzParseUnion -fuzztime $(FUZZTIME) ./internal/query/
	$(GO) test -run '^$$' -fuzz FuzzParseCompile -fuzztime $(FUZZTIME) ./internal/rex/
	$(GO) test -run '^$$' -fuzz FuzzSnapshotRoundTrip -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -run '^$$' -fuzz FuzzDigestCodec -fuzztime $(FUZZTIME) ./internal/integrity/
	$(GO) test -run '^$$' -fuzz FuzzPlanAnswers -fuzztime $(FUZZTIME) ./internal/cq/

bench:
	$(GO) test -bench=. -benchmem ./...

## server-test exercises the ecrpqd packages (HTTP endpoints, plan cache,
## cancellation) under the race detector.
server-test:
	$(GO) test -race ./internal/server/... ./internal/plancache/ ./internal/core/ ./internal/query/

## trace-gate runs the trace suite under the race detector and fails the
## build if the disabled-path benchmark reports any allocation: tracing
## must cost ~zero when off.
trace-gate:
	$(GO) test -race -count=1 ./internal/trace/
	@out="$$($(GO) test -run '^$$' -bench BenchmarkTraceDisabled -benchmem ./internal/trace/)"; \
	echo "$$out"; \
	echo "$$out" | grep -Eq 'BenchmarkTraceDisabled.*[[:space:]]0 allocs/op' || \
		{ echo "trace-gate: BenchmarkTraceDisabled allocates on the disabled path"; exit 1; }

## govern-gate runs the resource-governor suite under the race detector
## and fails the build if the disabled-path benchmark reports any
## allocation: accounting must cost ~zero when no broker is attached.
govern-gate:
	$(GO) test -race -count=1 ./internal/govern/
	@out="$$($(GO) test -run '^$$' -bench BenchmarkReservationDisabled -benchmem ./internal/govern/)"; \
	echo "$$out"; \
	echo "$$out" | grep -Eq 'BenchmarkReservationDisabled.*[[:space:]]0 allocs/op' || \
		{ echo "govern-gate: BenchmarkReservationDisabled allocates on the disabled path"; exit 1; }

## stream-gate guards the streaming enumeration subsystem: the iterator
## and pipelined-join suites run under the race detector, the
## first-witness benchmark must stay under a pinned allocation ceiling
## (the satisfiable fast path must not regress into materializing sweep
## tables), and the streamclose analyzer proves every stream.Tuples
## obtained in the hot path is Closed on all return paths.
stream-gate:
	$(GO) test -race -count=1 ./internal/stream/ ./internal/cq/
	@out="$$($(GO) test -run '^$$' -bench BenchmarkEnumerateFirstWitness -benchmem ./internal/core/)"; \
	echo "$$out"; \
	allocs=$$(echo "$$out" | awk '/BenchmarkEnumerateFirstWitness/ {for (i=1;i<NF;i++) if ($$(i+1)=="allocs/op") print $$i}'); \
	bytes=$$(echo "$$out" | awk '/BenchmarkEnumerateFirstWitness/ {for (i=1;i<NF;i++) if ($$(i+1)=="B/op") print $$i}'); \
	[ -n "$$allocs" ] && [ -n "$$bytes" ] || { echo "stream-gate: benchmark output missing alloc stats"; exit 1; }; \
	[ "$$allocs" -le 400 ] || { echo "stream-gate: first witness costs $$allocs allocs/op (ceiling 400) — the fast path is materializing"; exit 1; }; \
	[ "$$bytes" -le 32768 ] || { echo "stream-gate: first witness costs $$bytes B/op (ceiling 32768) — the fast path is materializing"; exit 1; }
	$(GO) run ./cmd/ecrpq-lint -only streamclose ./internal/core/ ./internal/cq/ ./internal/stream/ ./internal/server/

## sweep-gate guards the Lemma 4.3 sweep kernel: the differential suite
## (batched sweep ≡ per-source loop row for row, ≡ the brute-force
## semantics as a set, map-regime tables, budget splitting, cancellation
## releasing every charged byte, no [][]int field in cq.go and no
## make([]int, …) in reduction_build.go) runs under the race detector, and
## the layer benchmark must stay under 32 B and 0.05 allocations per emitted
## row — int32 rows, no header: rows go from the kernel's (destination,
## source-word) pairs straight into the one flat []int32 the relation keeps
## and the join scans (18.7 B per 2-track row measured; 58.8 when a row was
## 2t ints behind a slice header).
sweep-gate:
	$(GO) test -race -count=1 -run 'TestSweepKernel' ./internal/core/
	@out="$$($(GO) test -run '^$$' -bench BenchmarkSweepComponent -benchmem ./internal/core/)"; \
	echo "$$out"; \
	echo "$$out" | awk '/^BenchmarkSweepComponent/ { \
		rows = bytes = allocs = ""; \
		for (i = 1; i < NF; i++) { \
			if ($$(i+1) == "rows/op") rows = $$i; \
			if ($$(i+1) == "B/op") bytes = $$i; \
			if ($$(i+1) == "allocs/op") allocs = $$i; \
		} \
		if (rows == "" || bytes == "" || allocs == "" || rows <= 0) { print "sweep-gate: " $$1 ": benchmark output missing rows/op or alloc stats"; bad = 1; next } \
		seen++; \
		if (bytes / rows > 32) { printf "sweep-gate: %s costs %.1f B per row (ceiling 32)\n", $$1, bytes / rows; bad = 1 } \
		if (allocs / rows > 0.05) { printf "sweep-gate: %s costs %.4f allocs per row (ceiling 0.05)\n", $$1, allocs / rows; bad = 1 } \
	} END { if (!seen) { print "sweep-gate: no BenchmarkSweepComponent rows"; bad = 1 } exit bad }'

## generic-gate guards the Lemma 4.2 product search of the generic
## strategy. There is one product kernel (fastproduct.go) over the layout the
## database owns: no second engine for states past the packed width, no
## per-evaluation adjacency table and no caller that asks a kernel whether it
## exists have grown back in non-test internal/core (the kernels of a
## componentSearch and a sweepSource are built on first use, and nil means
## only "not yet"). Then the differential suite (one kept kernel and one
## resumable traversal per source assignment ≡ a fresh kernel and search per
## check, on the decision and on the smallest sufficient state budget; ≡ the
## reduction strategy and the brute-force semantics; every witness read off
## the recording kernel verified; every instance again in the wide key
## regime, and the components that are wide by nature; cancellation at every
## poll releasing every charged byte; the witness read off the search that
## decided ≡ a fresh recorded traversal, whatever the kernel did before; the
## shared key table ≡ a map; a kernel's charge following the states it meets)
## runs under the race detector, and the layer benchmark must begin at most
## V traversals on the exhaustive fan, stay under 0.05 allocations per check
## wherever an evaluation makes a thousand checks or more (a satisfiable
## instance that needs one check still builds a kernel and a result), and
## under 16 KiB per evaluation on the fan and 1.5 MB on the satisfiable
## prefix chain — 264 176 B and 5.28 MB when a kernel zeroed a bitset over
## its key space and re-ran the winning traversal for the paths. No kernel
## table is a Go map, no per-entry size is guessed, no letters are stored.
generic-gate:
	@cd internal/core && src="$$(ls *.go | grep -v _test.go)"; \
	if grep -nE 'productSearch|productState|sweepUnpacked|buildAdjacency|fp == nil' $$src; then \
		echo "generic-gate: a second product engine, a per-evaluation adjacency table or a does-not-pack branch is back"; exit 1; fi; \
	if grep -nE 'map\[uint64\]|fastStateMapBytes|\.letters\b' $$src; then \
		echo "generic-gate: a map-backed kernel table, a guessed entry size or stored witness letters are back"; exit 1; fi
	$(GO) test -race -count=1 -run 'TestGeneric|TestCancelMidGenericSearch|TestWitnessFromSearch|TestRankTableAgainstMap|TestKeyTablesAgainstMap' ./internal/core/
	@out="$$($(GO) test -run '^$$' -bench BenchmarkGenericCheck -benchmem -benchtime 20x ./internal/core/)" || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk '/^BenchmarkGenericCheck/ { \
		checks = trav = allocs = bytes = ""; \
		for (i = 1; i < NF; i++) { \
			if ($$(i+1) == "checks/op") checks = $$i; \
			if ($$(i+1) == "traversals/op") trav = $$i; \
			if ($$(i+1) == "allocs/op") allocs = $$i; \
			if ($$(i+1) == "B/op") bytes = $$i; \
		} \
		if (checks == "" || trav == "" || allocs == "" || bytes == "" || checks <= 0) { print "generic-gate: " $$1 ": benchmark output missing checks/op, traversals/op or alloc stats"; bad = 1; next } \
		seen++; \
		if ($$1 ~ /fan-eq3-unsat/) { fan++; if (trav > 100) { printf "generic-gate: %s begins %d traversals (ceiling V = 100)\n", $$1, trav; bad = 1 } } \
		ceiling = ($$1 ~ /fan-eq3-unsat/) ? 16384 : 1500000; \
		if (bytes > ceiling) { printf "generic-gate: %s costs %d B/op (ceiling %d) — a table is sized by its key space, or the witness re-runs the search\n", $$1, bytes, ceiling; bad = 1 } \
		if (checks >= 1000 && allocs / checks > 0.05) { printf "generic-gate: %s costs %.4f allocs per check (ceiling 0.05)\n", $$1, allocs / checks; bad = 1 } \
	} END { if (seen < 2 || !fan) { print "generic-gate: BenchmarkGenericCheck rows missing"; bad = 1 } exit bad }'

## join-gate guards the Prop 2.3 join (cq.Compile + the flat kernel): the
## package has one evaluator and one reference (no candidate-guessing answers
## engine beside the walk, and EvalBacktrack called from nowhere at run time);
## the differential suite (Plan.Eval ≡ backtracking, every witness checked
## atom by atom; Answers ≡ brute force ≡ the streaming join, on random
## instances, on the shapes the walk has to get right and on
## FuzzPlanAnswers' corpus; Answers' context polls within a constant of its
## table rows plus its answers; keys wider than a word; a charge function
## failing at every call; cancellation at every poll returning the pooled
## scratch and releasing every charged byte; one plan under eight
## goroutines) runs under the race detector, and the layer benchmark — one
## evaluation of a prepared plan on a prebuilt materialisation — must stay
## under 8 B and 0.05 allocations per input row wherever it reads 10 000
## rows or more, with no string-key frame in an every-allocation memory
## profile: tables are flat, keys are integers.
join-gate:
	@cd internal/cq && src="$$(ls *.go | grep -v _test.go)"; bad=0; \
	if grep -nE 'candidate\(|\.cand\b' $$src; then echo "join-gate: a candidate-guessing answers engine is back beside the walk"; bad=1; fi; \
	got="$$(grep -l 'EvalBacktrack(' $$src | tr '\n' ' ')"; \
	[ "$$got" = "eval.go " ] || { echo "join-gate: EvalBacktrack( appears in [ $$got], want [ eval.go ]: the reference evaluator is called at run time"; bad=1; }; \
	exit $$bad
	$(GO) test -race -count=1 -run 'TestPlan|TestAllAnswers|TestEval|FuzzPlanAnswers' ./internal/cq/
	$(GO) test -race -count=1 -run 'TestCancelMidJoin|TestPreparedJoin' ./internal/core/
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	out="$$($(GO) test -run '^$$' -bench BenchmarkCQJoin -benchmem -benchtime 200x \
		-memprofile "$$dir/mem.prof" -memprofilerate 1 -o "$$dir/core.test" ./internal/core/)" || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk '/^BenchmarkCQJoin/ { \
		rows = bytes = allocs = ""; \
		for (i = 1; i < NF; i++) { \
			if ($$(i+1) == "rows/op") rows = $$i; \
			if ($$(i+1) == "B/op") bytes = $$i; \
			if ($$(i+1) == "allocs/op") allocs = $$i; \
		} \
		if (rows == "" || bytes == "" || allocs == "" || rows <= 0) { print "join-gate: " $$1 ": benchmark output missing rows/op or alloc stats"; bad = 1; next } \
		seen++; \
		if (rows < 10000) next; \
		big++; \
		if (bytes / rows > 8) { printf "join-gate: %s costs %.2f B per input row (ceiling 8)\n", $$1, bytes / rows; bad = 1 } \
		if (allocs / rows > 0.05) { printf "join-gate: %s costs %.4f allocs per input row (ceiling 0.05)\n", $$1, allocs / rows; bad = 1 } \
	} END { if (seen < 6 || big < 4) { print "join-gate: BenchmarkCQJoin rows missing"; bad = 1 } exit bad }' || exit 1; \
	frames="$$($(GO) tool pprof -sample_index=alloc_space -top -nodefraction=0 -nodecount=100000 "$$dir/core.test" "$$dir/mem.prof" 2>/dev/null)" || { echo "join-gate: cannot read the memory profile"; exit 1; }; \
	echo "$$frames" | grep -q 'cq\.(\*Plan)\.Eval' || { echo "join-gate: the memory profile does not show the join"; exit 1; }; \
	if echo "$$frames" | grep -Eq 'cq\.(key|appendKey)$$'; then echo "join-gate: the join builds string keys"; exit 1; fi

## front-gate guards the serving front half of a read (serveRead): the
## request-text memo and response-encoder suites (memo hit ≡ fresh parse on
## every text × strategy × endpoint, one memoised text under eight
## goroutines, parse errors never cached, text entries on the ledger, an
## unencodable response a 500) run under the race detector, and the layer
## benchmark — one /v1/query whose text, plan and materialisation are
## resident, handler to recorder — must stay under 330 (thin) and 190 (join)
## allocations per request: 273 and 155 when the memo landed, 1 418 and 283
## with the parser and the canonical hash on the path.
front-gate:
	$(GO) test -race -count=1 -run 'TestTextMemo|TestWriteJSON|TestReadRefusalContract' ./internal/server/
	@out="$$($(GO) test -run '^$$' -bench BenchmarkServeReadHit -benchmem -benchtime 2000x ./internal/server/)" || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk '/^BenchmarkServeReadHit/ { \
		allocs = ""; \
		for (i = 1; i < NF; i++) if ($$(i+1) == "allocs/op") allocs = $$i; \
		if (allocs == "") { print "front-gate: " $$1 ": benchmark output missing alloc stats"; bad = 1; next } \
		seen++; \
		ceiling = ($$1 ~ /thin/) ? 330 : 190; \
		if (allocs > ceiling) { printf "front-gate: %s costs %d allocs/op (ceiling %d) — query-only work is back on the hit path\n", $$1, allocs, ceiling; bad = 1 } \
	} END { if (seen < 2) { print "front-gate: BenchmarkServeReadHit rows missing"; bad = 1 } exit bad }'

## spine-gate guards the one evaluation spine of internal/core: prepare is
## the only compiler (the only non-test callers of decompose are it,
## Explain and Satisfiable; cq.Compile is called once), mergedViews the
## only Lemma 4.1 merge routine besides Satisfiable's, no pinned
## reduction plumbing (__pin_ relations) has grown back, and plain
## reachability has no evaluator of its own — a path variable in no
## non-universal atom is a one-track Σ* component, so non-test internal/core
## has no free-track type, any-label BFS, __reach relation, reach stream or
## reach cache, and internal/planner costs no FreeTracks term; then the answers
## matrix — every strategy × every way of asking for an answer set ≡ the
## brute-force semantics, pages of 1, 7 and 50 concatenating to the one-shot
## enumeration, the free-track shapes as written and with (a|b)* spelled
## out — and the regressions of the unified path (the answers join, a Generic
## plan's rows and the kernels that decide free tracks are charged to the
## request; V^|Free| past 2³² is refused, not answered empty, by the one
## sweep-size rule; an answer set's work follows its size, and a Generic
## enumeration opens one span; a free track ≡ the language (a|b)*; the
## per-source memo of pinned Opens) run under the race detector.
spine-gate:
	@cd internal/core && src="$$(ls *.go | grep -v _test.go)"; bad=0; \
	calls() { grep -n "[^A-Za-z]$$1(" $$src | grep -v ":func $$1("; }; \
	want() { got="$$(calls "$$1" | cut -d: -f1 | tr '\n' ' ')"; [ "$$got" = "$$2" ] || { echo "spine-gate: $$1( is called from [ $$got], want [ $$2]"; bad=1; }; }; \
	want decompose 'explain.go prepared.go satisfiable.go '; \
	want mergeComponent 'reduction_build.go satisfiable.go '; \
	want 'cq\.Compile' 'prepared.go '; \
	if grep -n '__pin_' $$src; then echo "spine-gate: the pinned-reduction relations are back"; bad=1; fi; \
	if grep -nE 'freeTrack|anyReach\(|anyPath\(|__reach|reachStream|reachCache' $$src; then echo "spine-gate: plain reachability has an evaluator of its own again"; bad=1; fi; \
	if grep -n 'FreeTracks' $$(ls ../planner/*.go | grep -v _test.go); then echo "spine-gate: the planner costs free tracks apart from components"; bad=1; fi; \
	exit $$bad
	$(GO) test -race -count=1 -run 'TestAnswersStrategiesAgreeProperty|TestAnswersJoinIsGoverned|TestGenericEnumerationSafetyBound|TestAnswersWork|TestExplainBuildsNoViews|TestFreeTrackIsSigmaStar|TestSweepSources|TestSweepSourceMemo|TestDecompose|TestExplain' ./internal/core/
	$(GO) test -race -count=1 -run 'TestPlanDifferential|TestPlanAnswers' ./internal/cq/
	$(GO) test -race -count=1 -run 'TestFreeVariable|TestAnswersJoinBounded' ./internal/server/

## write-gate guards the one write pipeline of internal/server: the
## registry's install and remove methods each have exactly one non-test
## caller (Server.install and Server.remove, write.go), and nothing in
## internal/server or internal/cluster outside the loop runner creates a
## timer — periodic work is a body handed to cluster.Loops. Then the write
## contract (every way of installing × every situation a name can be in,
## every way of dropping, a failing journal append: the same post-conditions
## everywhere), the two regressions of the hand-copied sequences (a
## replicated drop left its quarantine record behind; a finding about one
## generation quarantined the next) and the runner's suites run under the
## race detector with fault injection compiled in.
write-gate:
	@cd internal/server && src="$$(ls *.go | grep -v _test.go)"; bad=0; \
	want() { got="$$(grep -n "$$1(" $$src | cut -d: -f1 | tr '\n' ' ')"; [ "$$got" = "$$2" ] || { echo "write-gate: $$1( is called from [ $$got], want [ $$2]"; bad=1; }; }; \
	want 'dbs\.install' 'write.go '; \
	want 'dbs\.remove' 'write.go '; \
	exit $$bad
	@src="$$(ls internal/server/*.go internal/cluster/*.go | grep -v -e _test.go -e internal/cluster/loop.go)"; \
	if grep -nE 'time\.(NewTimer|NewTicker|Tick|After|AfterFunc)\(' $$src; then \
		echo "write-gate: a timer outside the loop runner (internal/cluster/loop.go)"; exit 1; fi
	$(GO) test -race -count=1 -tags faultinject -run 'TestWriteContract|TestReplicatedDropLiftsQuarantine|TestStaleFindingSparesNewerGeneration|TestBackgroundLoops' ./internal/server/
	$(GO) test -race -count=1 -tags faultinject -run 'TestLoops|TestSleep|TestChaosLoop|TestStopIdempotent' ./internal/cluster/

## chaos rebuilds the fault-injection build (-tags faultinject) and runs
## the deterministic chaos suite under the race detector: injected
## persist/cache/pool/core faults must surface as typed errors with no
## corruption and no goroutine leaks.
chaos:
	$(GO) test -race -tags faultinject ./internal/faultinject/ ./internal/persist/ ./internal/server/... ./internal/client/ ./internal/govern/ ./internal/cluster/
	$(GO) test -race -tags faultinject -run TestChaos ./internal/core/

## cluster-gate guards multi-node operation: the ring/placement and
## failure-detector suites plus the in-process cluster tests run under
## the race detector with fault injection compiled in (partition,
## replication-lag and mid-replication-crash chaos), then the
## multi-process acceptance test boots three real daemons, measures
## read scaling, and kill -9s the owner.
cluster-gate:
	$(GO) test -race -count=1 -tags faultinject ./internal/cluster/ ./internal/server/
	$(GO) test -count=1 -run TestClusterThroughputAndFailover -v ./cmd/ecrpqd/

## plan-gate guards the cost-based planner: the statistics catalog,
## planner and plan-cache suites run under the race detector, the
## planstats analyzer proves the planner reads database facts only
## through the stats.Catalog API (never raw graph scans), and the A12
## ablation re-runs its acceptance bar — the cost model must beat the
## fixed track-count rule ≥1.5× on the fan regime with no work
## regression on E1/E3 (the bars are invariant-asserted inside the
## experiment, so a violation fails the test).
plan-gate:
	$(GO) test -race -count=1 ./internal/stats/ ./internal/planner/ ./internal/plancache/
	$(GO) run ./cmd/ecrpq-lint -only planstats ./...
	$(GO) test -count=1 -run TestPlannerAblationBar ./internal/experiments/

## integrity-gate guards the end-to-end integrity subsystem: digest
## codec and sidecar suites, then the corruption chaos tests under the
## race detector with fault injection compiled in — at-rest bit-flips
## self-heal from verified memory, rotted copies quarantine with typed
## 503s and cluster reads failing over, divergent replication ships are
## rejected, and the catch-up round re-fetches verified content from the
## ring owner with digests re-converging and no goroutine leaks.
integrity-gate:
	$(GO) test -race -count=1 ./internal/integrity/
	$(GO) test -race -count=1 -tags faultinject ./internal/persist/ ./internal/server/ \
		-run 'TestDigest|TestSidecar|TestScrub|TestQuarantine|TestIntegrity|TestAntiEntropy|TestReplicateRejects|TestClusterCorruption|TestChaosScrub|TestChaosReplicateDivergence|TestChaosClusterBitflip|TestChaosCrashBeforeSidecarRename|TestRestoreDigestMismatch|TestVerifyJournal'

## bench-check builds, vets and tests the benchmark's nested module
## (bench/go.mod, `replace ecrpq => ../`). The root `go test ./...` does not
## see it, so without this a server or client refactor can break what
## BENCHMARK.json runs and nothing notices.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

## ci mirrors the GitHub Actions gate: build, vet, lint, tests, race
## tests, chaos suite, trace/govern zero-alloc gates, the streaming
## enumeration gate, the sweep-kernel gate, the generic product-search
## gate, the join-kernel gate, the serving-front gate, the evaluation-spine
## gate, the write-pipeline gate, the planner gate, the multi-node cluster
## gate, the integrity gate, and the benchmark module's own build and tests.
ci: build vet lint test race server-test chaos trace-gate govern-gate stream-gate sweep-gate generic-gate join-gate front-gate spine-gate write-gate plan-gate cluster-gate integrity-gate bench-check
