# Tier-1 verification is `make verify`: build everything, vet it, then run
# the full test suite under the race detector. The suite includes the
# parallel-runner determinism regressions (internal/experiments), the
# differential harness (the root TestDifferential: every row's scenarios
# run concurrently, its workers axis on a four-worker runner.Map), the
# concurrent-kernel property tests (internal/sim) and the telemetry
# disabled-path allocation guard (internal/telemetry), so -race is
# load-bearing, not decorative.

GO ?= go

.PHONY: build test race vet lint verify bench-test perf fuzz campaign-smoke trials-smoke replay-smoke scale-smoke budget-smoke figures clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The determinism lint suite (cmd/rwlint): seven custom go/analysis-style
# analyzers enforcing the invariants the parallel runner's bitwise
# determinism rests on — globalrand (no global math/rand), walltime (no wall
# clock outside the allowlist), mapyield (no map-ordered output),
# hotpathalloc (no per-message hash construction), nilinstrument (nil-safe
# telemetry instruments), envpurity (time/randomness only through
# protocol.Env, interprocedurally) and errsink (no dropped I/O errors in
# internal/capture and cmd/). See DESIGN.md "Static analysis".
lint:
	$(GO) run ./cmd/rwlint -timing $(RWLINT_FLAGS) ./...

# The rwbench harness (bench/) is a module of its own, so `go build ./...`
# and `go test ./...` at the root never compile it. Its tests do (~2.5 s),
# so a change to an internal/ API the harness calls (routing.ComputeTable,
# protocol.Run) fails here instead of at the next benchmark run.
bench-test:
	$(GO) -C bench test ./...

verify: build vet lint race bench-test

# The performance ledger: run rwbench's five workloads (three untraced runs
# plus one traced run each, ~8 min) and judge every end-to-end metric
# against the committed baseline set with its per-metric bounds. Exit 1 on
# any "worse" row. The root bench_test.go regenerates the paper's figures
# and carries no allocation guard: those live in package tests and
# benchmarks, such as internal/routing's BenchmarkComputeTable (CI's bench
# smoke runs every benchmark once) and internal/telemetry's
# TestDisabledPathAllocs.
perf:
	@tmp=$$(mktemp) && \
	$(GO) -C bench run ./rwbench -runs 3 -seconds 18 -out $$tmp && \
	$(GO) -C bench run ./rwbench -compare out/baseline-seed1-a.json $$tmp; \
	status=$$?; rm -f $$tmp; exit $$status

# Short fuzz pass over every fuzz harness of the module (the seed corpus
# also runs as ordinary tests under `go test`). The harnesses are found, not
# listed: `go test -list` prints each package's Fuzz* names before its "ok"
# line, and each one is fuzzed on its own, since -fuzz takes one target.
# Override FUZZTIME for quicker smokes: make fuzz FUZZTIME=2s.
FUZZTIME ?= 10s

fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	targets=$$(echo "$$list" | awk '/^Fuzz/ { n = n " " $$1 } /^ok / { if (n != "") print $$2 n; n = "" }'); \
	[ -n "$$targets" ] || { echo "fuzz: no harness found"; exit 1; }; \
	echo "$$targets" | while read pkg names; do \
		for f in $$names; do \
			$(GO) test $$pkg -run='^$$' -fuzz="^$$f\$$" -fuzztime=$(FUZZTIME) </dev/null || exit 1; \
		done; \
	done

# Bounded adversary-mutation campaign (cmd/campaign): one operator axis per
# family would be too narrow, so the smoke sweeps the full catalog with a
# small budget and asserts bitwise determinism across worker counts — the
# property the frontier report stakes its claims on.
campaign-smoke:
	$(GO) run ./cmd/campaign -budget 14 -seed 1 -parallel 1 -quiet -json campaign-a.json > /dev/null
	$(GO) run ./cmd/campaign -budget 14 -seed 1 -parallel 4 -quiet -json campaign-b.json > /dev/null
	cmp campaign-a.json campaign-b.json
	@rm -f campaign-a.json campaign-b.json
	@echo "campaign smoke: deterministic across -parallel"

# Aggregate-mode smoke (mrsim -trials): no test drives the CLI's fold, which
# is how a shard array sized for 64 workers survived to panic on a 65-CPU
# host. 70 trials on a 65-way pool must print their aggregate, and a
# 16-trial aggregate must be byte-identical across -parallel. Then the
# honest cells: 16 attack-free trials each of Πk+2 and Π2 must accuse no
# correct router.
trials-smoke:
	GOMAXPROCS=65 $(GO) run ./cmd/mrsim -protocol pik2 -trials 70 -duration 8s > /dev/null
	$(GO) run ./cmd/mrsim -protocol pik2 -trials 16 -duration 8s -parallel 1 > trials-a.txt
	$(GO) run ./cmd/mrsim -protocol pik2 -trials 16 -duration 8s -parallel 4 > trials-b.txt
	cmp trials-a.txt trials-b.txt
	for p in pik2 pi2; do \
		$(GO) run ./cmd/mrsim -protocol $$p -attack none -trials 16 -duration 8s > trials-honest.txt && \
		grep -q '^  accused a correct router: 0/16$$' trials-honest.txt || { cat trials-honest.txt; exit 1; }; \
	done
	@rm -f trials-a.txt trials-b.txt trials-honest.txt
	@echo "trials smoke: aggregate printed on a 65-way pool, deterministic across -parallel; honest pik2 and pi2 accuse no one"

# Capture-and-replay smoke (internal/capture + cmd/mrreplay): record the
# routed isp-converge Πk+2 run, whose detectors attach after the fabric
# converges, replay the trace, and require the suspicion verdicts to match
# the originating simulation byte for byte — so the replay clock must start
# where the recorder attached. The pik2 options below must match the
# scenario file's options block. Concurrent replays are compared by the
# differential harness (TestDifferential's line5drop/workers/replayN).
PIK2_OPTS = k=1,round=1s,timeout=250ms,loss-threshold=2,fabrication-threshold=2

replay-smoke:
	$(GO) run ./cmd/mrsim -scenario bench/workloads/isp-converge.json \
		-record replay-smoke-trace -verdicts replay-smoke-sim.txt > /dev/null
	$(GO) run ./cmd/mrreplay -trace replay-smoke-trace -protocol pik2 \
		-options "$(PIK2_OPTS)" -verdicts replay-smoke-replay.txt > /dev/null
	cmp replay-smoke-sim.txt replay-smoke-replay.txt
	@rm -rf replay-smoke-trace replay-smoke-sim.txt replay-smoke-replay.txt
	@echo "replay smoke: verdicts byte-identical across record/replay"

# Internet-scale smoke (internal/protocol/catalog), every run judged by the
# §4.2.2 conformance checkers at Πk+2's bound: TestScaleSmoke, a generated
# ~200-router hierarchical topology with a 120-pair traffic mesh over
# link-state routing; TestSeedAccuracy, the committed isp-converge
# and mesh-forward workloads at spec seeds 1–10 (tier-1 runs three of the
# twenty cells); and TestScaleFull, the 1000-router one-million-flow
# isp1000.json (~25 s), which must implicate r0 with no false accusation.
scale-smoke:
	RW_SCALE_SMOKE=1 RW_SCALE_FULL=1 $(GO) test ./internal/protocol/catalog/ \
		-run '^(TestScaleSmoke|TestSeedAccuracy|TestScaleFull)$$' -count=1 -v
	@echo "scale smoke: 200-router ISP, two workloads at seeds 1-10 and isp1000 judged by the §4.2.2 checkers"

# Event-budget smoke (DESIGN.md "Hot path", the per-hop event contract): the
# mesh-forward scenario, read in place from bench/workloads, must fire at
# most 1.5 scheduler events per forwarded packet (1.30 today — 1.32 before
# ISSUE 24 took the empty summaries' relay events out — and 3.32 with a
# txDone and a zero-delay forward event per hop), read off the same
# telemetry a user gets — rw_sim_events_total over the per-router
# rw_packets_forwarded_total — and stdout must not notice -metrics. The same
# run carries the exchange budget (DESIGN.md "Segment monitor", silence is the
# empty summary): rw_detector_summaries_total / rw_detector_rounds_total must
# stay at or under 0.25 (0.20 since ISSUE 24: 3 859 / 18 960; 1.17 when every
# monitored segment signed and sent a summary every round, empty or not).
# Last, the assembly heap budget (internal/protocol/catalog
# TestAssembleAllocBudget): isp-converge, assembled through protocol.Run up
# to BeforeRun, must allocate at most 38 MB in at most 33 500 allocations
# (26.2 MB / 31.5 k today; 26.4 MB / 37 k with an interface, a drain
# closure and two maps' share allocated per link; 30.2 MB / 113 k with an
# allocation per control message hop, per accepting flood relay and per
# LSA bundle flush; 34.3 MB / 205 k with Πk+2 attaching per watch — a key,
# links, state and reversed path each — and a string key per segment;
# 48.9 MB / 268 k with a path table of path headers,
# routing tables of degree+1 rows and LSA bundles grown by doubling; 2.3 MB
# more with a control message carrying an ID and a transport signature
# nothing read; 86.7 MB / 338 k with eager static tables, map LSDBs,
# per-source Dijkstra buffers, a copied path table and eagerly seeded RNGs).
# And the run heap budget (TestRunAllocBudget): chi-tcp, mesh-forward and
# isp-converge, run end to end through protocol.Run, must allocate at most
# 20, 36 and 55 MB in at most 5 650, 12 000 and 40 000 allocations (16.5,
# 28.8 and 37.2 MB in 5.2 k, 11.5 k and 38.1 k today; mesh-forward and
# isp-converge 30.8 k and 61 k while every Πk+2 segment-round allocated its
# own summary, lane and SummaryMsg, every adopting router decoded its own
# copy of an alert and every link its own interface; 22.5 k, 35.6 k and
# 74.4 k while every χ batch allocated its Batch, lanes and aggregate tags
# and every router adopting a Πk+2 announcement formatted its own Detail;
# 25 k, 64 k and 196 k allocations while every control message hop,
# accepting flood relay and LSA flush allocated and every alert was decoded
# before its admission;
# 17.0, 30.6 and 47.1 MB before that; chi-tcp 64.0 and
# mesh-forward 67.1 MB when every packet was fresh memory, chi-tcp 30.4 MB
# with the packet pool but χ batches grown by append doubling, mesh-forward
# 41.4 MB with Πk+2's fingerprint lanes grown by append and each boundary's
# summaries signed as one batch, and isp-converge 65.8 MB with the
# stable-state tables above).
budget-smoke:
	$(GO) run ./cmd/mrsim -scenario bench/workloads/mesh-forward.json > budget-smoke-plain.txt
	$(GO) run ./cmd/mrsim -scenario bench/workloads/mesh-forward.json -metrics - \
		> budget-smoke-metrics.txt 2> budget-smoke-metrics.prom
	cmp budget-smoke-plain.txt budget-smoke-metrics.txt
	@awk '/^rw_packets_forwarded_total/ { fwd += $$2 } /^rw_sim_events_total/ { ev = $$2 } \
		END { if (fwd == 0) { print "budget smoke: no forwards counted"; exit 1 } \
		      printf "budget smoke: %d events / %d forwards = %.2f per forward (limit 1.50)\n", ev, fwd, ev / fwd; \
		      exit !(ev / fwd <= 1.5) }' budget-smoke-metrics.prom
	@awk '/^rw_detector_summaries_total/ { sum = $$2 } /^rw_detector_rounds_total/ { rounds = $$2 } \
		END { if (rounds == 0) { print "budget smoke: no rounds judged"; exit 1 } \
		      printf "budget smoke: %d summaries / %d segment-rounds = %.2f per round (limit 0.25)\n", sum, rounds, sum / rounds; \
		      exit !(sum / rounds <= 0.25) }' budget-smoke-metrics.prom
	@rm -f budget-smoke-plain.txt budget-smoke-metrics.txt budget-smoke-metrics.prom
	$(GO) test ./internal/protocol/catalog/ -run '^(TestAssembleAllocBudget|TestRunAllocBudget)$$' -count=1 -v

figures:
	$(GO) run ./cmd/figures

clean:
	$(GO) clean ./...
