GO ?= go

.PHONY: ci vet build test race race-core chaos mesh metrics timeline wire optimistic service obs fuzz-smoke bench-smoke bench bench-parallel bench-migrate bench-optimistic bench-sessions bench-obs

ci: vet build test race race-core chaos mesh metrics timeline wire optimistic service obs bench-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the packages with real concurrency: the wire framing,
# the channel protocol + coalescing, the kernel scheduler, and the
# fault-injection / session-recovery layers.
race:
	$(GO) test -race -count=1 ./internal/wire/... ./internal/channel/... ./internal/core/... ./internal/node/... ./internal/faultnet/... ./internal/resilience/...

# The parallel scheduler must be race-clean both when goroutines are
# forced onto one OS thread and when they genuinely interleave.
race-core:
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/core/...
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/core/...

# The seeded chaos suite: Table-1 workloads under injected WAN faults
# must produce results identical to the fault-free run, under the race
# detector.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/experiments/...

# The mesh gate: the 3-node control plane and live migration under
# the race detector, including the drive-digest equivalence suite
# (stationary vs migrated vs there-and-back vs randomized barriers).
mesh:
	$(GO) test -race -count=1 ./internal/mesh/

# The observability gate: every Stats()/snapshot accessor hammered
# concurrently with live faulted traffic under the race detector, plus
# the guard that the drive fanout hot path still allocates nothing
# with metrics disabled (the registry is pull-based, so shipping it
# must not move this number).
metrics:
	$(GO) vet ./internal/metrics/...
	$(GO) test -race -count=1 -run 'TestMetricsHammer' .
	$(GO) test -count=1 -run 'TestDriveFanoutZeroAlloc' ./internal/event/

# The timeline gate: determinism (the merged canonical export of the
# faulted two-node run is byte-identical across same-seed reruns),
# rewind semantics (rolled-back spans drop from the export), and the
# disabled-path guard (the nil-recorder emitters and the drive fanout
# hot path stay at exactly 0 allocs/op with the timeline off).
timeline:
	$(GO) test -count=1 ./internal/timeline/ ./internal/trace/
	$(GO) test -count=1 -run 'TestTimelineChaos' ./internal/experiments/
	$(GO) test -count=1 -run 'TestDriveFanoutZeroAlloc' ./internal/event/

# The wire gate: the zero-copy hot path's allocation guards (encode —
# tag-table values, a registered value and wubbleu's NetReq — decode,
# queue scan, the filtered Recv on both its inline and its parked path
# and the one-word uncoalesced flush must stay at 0 allocs/op
# steady-state; a cold page-load burst into an empty queue costs one
# allocation per 256-row chunk and is released once drained), the
# buffered-ingress table (split frames,
# bursts per read, oversized and hostile lengths, mid-frame errors,
# session rewinds) and the pump's burst, frame-kind and corrupt-entry
# rules, the codec microbenchmarks, the cross-node stress tests under
# the race detector, and a fuzz smoke pass over the frame parser and
# batch codec.
wire:
	$(GO) test -count=1 -run 'TestCodecZeroAlloc|TestDecodePacketAmortizedAlloc|TestDecodeLargeWordBoxes' ./internal/channel/ ./internal/wubbleu/
	$(GO) test -count=1 -run 'TestSendBatchWordZeroAlloc|TestPump' ./internal/node/
	$(GO) test -count=1 -run 'TestRecvFrame|TestRecvBurst' ./internal/wire/
	$(GO) test -count=1 -run 'TestQueueScanZeroAlloc|TestDriveFanoutZeroAlloc|TestQueueBurstAllocs' ./internal/event/
	$(GO) test -count=1 -run 'TestRecvFilteredZeroAlloc' ./internal/core/
	$(GO) test -race -count=1 -run 'TestBidirectionalStress' ./internal/channel/
	$(GO) test -race -count=1 ./internal/wire/ ./internal/node/
	$(GO) test -run=^$$ -bench 'BenchmarkAppendBatch|BenchmarkDecodeBatchInto' -benchtime=1000x ./internal/channel/
	$(MAKE) fuzz-smoke

# A few seconds of fuzzing per target: the frame parser on hostile
# streams, the batch decoder on arbitrary payloads (hostile lengths,
# retired encodings, extension values), and the encode/decode round
# trip over tag-table and registered values.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzFrameParser -fuzztime=3s ./internal/wire/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeBatch -fuzztime=3s ./internal/channel/
	$(GO) test -run=^$$ -fuzz=FuzzBatchRoundTrip -fuzztime=3s ./internal/channel/

# The scheduler-core gate: the three-way equivalence matrix
# (sequential x conservative x optimistic over 50 random topologies,
# every worker count and window bit-identical), the straggler storm (a
# topology built so every speculative round rolls back, exactly
# converging anyway), the one worker pool (attached and run-owned
# bit-identical to sequential and to each other, fair-shared tenants,
# no worker outliving Run) and the ablation's structural invariants,
# all under the race detector, plus the guards that the disabled paths
# — straggler span emission and inbox truncation — stay at 0 allocs/op.
optimistic:
	$(GO) test -race -count=1 -run 'TestParallelEquivalenceProperty|TestOptimisticStragglerStorm|TestOptimisticThrottleAdapts|TestSharedPool|TestParallelPoolRestart' ./internal/core/
	$(GO) test -race -count=1 -run 'TestOptimistic' ./internal/experiments/
	$(GO) test -count=1 -run 'TestDisabledTimelineZeroAlloc' ./internal/timeline/
	$(GO) test -count=1 -run 'TestDiscardAfterNoopZeroAlloc' ./internal/event/

# The multi-tenant service gate: the whole catalog package (session
# lifecycle, concurrent churn, shared-listener attach, HTTP API)
# under the race detector, the fair-share determinism proof (tenant
# digests bit-identical to isolated runs at every pool size; the pool
# itself is gated in `optimistic`), and the pianode observability-mux
# suite.
service:
	$(GO) test -race -count=1 ./internal/service/
	$(GO) test -race -count=1 -run 'TestSessionsExperiment' ./internal/experiments/
	$(GO) test -count=1 ./cmd/pianode/

# The flight-recorder gate: the flight package (ring, trips,
# backpressure hub, SSE end-to-end, sampler) under the race detector,
# the extended hammer (live /watch client + deliberately stalled
# client + /debug/flight served concurrently with faulted traffic),
# and the zero-alloc guards for every disabled and steady-state hot
# path the flight stack touches (nil recorder/observer, enabled ring
# record, attribution accounting).
obs:
	$(GO) vet ./internal/flight/...
	$(GO) test -race -count=1 ./internal/flight/
	$(GO) test -race -count=1 -run 'TestMetricsHammer' .
	$(GO) test -count=1 -run 'TestNilEverythingIsInert|TestDisabledPathZeroAllocs|TestEnabledRecordZeroAllocs' ./internal/flight/
	$(GO) test -count=1 -run 'TestAttributionAccountingZeroAllocs|TestAttributionDigestUnchanged' ./internal/core/
	$(GO) test -race -count=1 -run 'TestObs' ./internal/experiments/ ./cmd/pianode/

# The session-service benchmark: steady-state concurrent tenants at
# each pool size, lifecycle churn throughput, and the deterministic
# admission/eviction probes; piabench exits non-zero if any tenant
# digest deviates from its isolated reference — the BENCH_6 artifact.
bench-sessions:
	$(GO) run ./cmd/piabench -exp sessions -json BENCH_6.json

# One iteration of the headline benchmarks, as a smoke test that the
# Table 1 experiments still run end to end (including the coalesced
# remote row), then one second of each bench/ workload: the program
# exits 0 even when simulations fail, so the gate is the result line's
# "correct":true — the pinned virtual times, drive counts and digests
# reproduced by every simulation.
bench-smoke:
	$(GO) test -run=^$$ -bench=Table1 -benchtime=1x ./...
	@for w in local_word remote_word remote_packet_bulk fan_speculative; do \
		echo "bench $$w"; \
		$(GO) run ./bench -workload $$w -seconds 1 -label smoke | tail -n 1 | grep -q '"correct":true' \
			|| { echo "bench-smoke: $$w did not reproduce its pinned invariants"; exit 1; }; \
	done

# The worker-pool sweep: piabench exits non-zero if any parallel leg
# diverges from the sequential reference, so this doubles as a
# determinism gate.
bench-parallel:
	$(GO) run ./cmd/piabench -exp parallel -json BENCH_2.json

# The live-migration experiment: zero virtual downtime and
# bit-identical digests across stationary, migrated and chaos legs
# (piabench exits non-zero on divergence), plus the wall-clock
# migration and epoch-propagation costs — the BENCH_4 artifact.
bench-migrate:
	$(GO) run ./cmd/piabench -exp migrate -json BENCH_4.json

# The Time Warp ablation: lookahead x mode x workers; piabench exits
# non-zero if any leg's drive digest deviates from the sequential
# reference — the BENCH_5 artifact.
bench-optimistic:
	$(GO) run ./cmd/piabench -exp optimistic -json BENCH_5.json

# The observability overhead benchmark: remote-word and steady
# sessions legs, metrics baseline vs full flight stack (recorder +
# sampler + live SSE watcher + cost attribution); piabench exits
# non-zero if any virtual result moves with observers attached — the
# BENCH_7 artifact.
bench-obs:
	$(GO) run ./cmd/piabench -exp obs -json BENCH_7.json

bench: bench-parallel
	$(GO) test -run=^$$ -bench=. -benchmem ./...
