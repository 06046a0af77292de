GO ?= go

.PHONY: ci loc fmt vet build test examples race race-core chaos mesh metrics timeline wire optimistic service obs fuzz-smoke bench-smoke bench bench-parallel bench-migrate bench-optimistic bench-sessions bench-obs

ci: fmt vet build test examples race race-core chaos mesh metrics timeline fuzz-smoke wire optimistic service obs bench-smoke

# Line counts, the north star's net-negative metric: for each package
# directory outside bench/, then each top-level directory and the whole
# tree, the non-test Go lines and the non-blank, non-comment ones (a
# comment line is one that starts with //).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | sort | xargs awk ' \
		FNR == 1 { d = FILENAME; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); \
			t = d; sub(/\/.*/, "", t); if (!(d in n)) dirs[++nd] = d; if (!(t in tn)) tops[++nt] = t } \
		{ n[d]++; tn[t]++; all++ } \
		!/^[ \t]*(\/\/.*)?$$/ { c[d]++; tc[t]++; code++ } \
		END { printf "%-28s %7s %7s\n", "directory", "lines", "code"; \
			for (i = 1; i <= nd; i++) printf "%-28s %7d %7d\n", dirs[i], n[dirs[i]], c[dirs[i]]; \
			for (i = 1; i <= nt; i++) printf "%-28s %7d %7d\n", tops[i] "/ (all)", tn[tops[i]], tc[tops[i]]; \
			printf "%-28s %7d %7d\n", "total", all, code }'

# Every Go file is gofmt-clean: any name gofmt -l prints fails the gate.
fmt:
	@out=$$(gofmt -l internal cmd bench examples *.go); \
		[ -z "$$out" ] || { echo "gofmt -l:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every program under examples/ builds and runs to a zero exit. The
# examples are the callers that keep several of the pia package's names
# exported (TestPublicSurface), so a broken one fails here, not only a
# build.
examples:
	@for d in examples/*/; do \
		d=$${d%/}; echo "example $$d"; \
		$(GO) run ./$$d > /dev/null || { echo "examples: $$d failed"; exit 1; }; \
	done

# Race-check the packages with real concurrency: the wire framing,
# the channel protocol + coalescing, the kernel scheduler, the
# fault-injection / session-recovery layers, the snapshot agent (its
# completed-snapshot table is read under mu by the session goroutines'
# rewind hooks), the two recorders written from scheduler, pump and
# keepalive goroutines at once (the timeline ring and the flight ring),
# and WubbleU's page memo, shared by simulations running at once.
race:
	$(GO) test -race -count=1 ./internal/wire/... ./internal/channel/... ./internal/core/... ./internal/node/... ./internal/faultnet/... ./internal/resilience/... ./internal/snapshot/... ./internal/timeline/... ./internal/flight/... ./internal/wubbleu/...

# The parallel scheduler must be race-clean both when goroutines are
# forced onto one OS thread and when they genuinely interleave. The
# run loop's wake-up ordering is part of that: a Wake landing between
# a closed gate and the wait must not be slept through
# (TestDepartGateWakeBeforeWait, deterministic at either setting).
race-core:
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/core/...
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/core/...

# The seeded chaos suite: Table-1 workloads under injected WAN faults
# must produce results identical to the fault-free run, under the race
# detector; the determinism leg, whose recovery rides on wall-clock
# heartbeats, is then repeated 20 times.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/experiments/...
	$(GO) test -race -count=20 -run 'TestChaosDeterminism$$' ./internal/experiments/

# The mesh gate: the 3-node control plane and live migration under
# the race detector — the control frames' round trip, the hostile
# frames and handshakes that end only their own connection, a silent
# peer that holds neither Start past its deadline nor Close, a move the
# source cannot capture dropped without ending the run — including
# the drive-digest equivalence suite
# (stationary vs migrated vs there-and-back vs randomized barriers) and
# WubbleU's server migrating between two page loads with the results
# of the unmigrated mesh and of BuildLocal, both with goroutines forced
# onto one OS thread and genuinely interleaved. The control plane waits
# on signals (a membership change, a handed-over channel, a reply),
# which is where a lost wake-up hides at 1-in-100, so everything but
# the wall-clock-heavy chaos leg and the WubbleU runs (four full page
# loads on meshes, the demo's control plane again) is then repeated
# 20 times.
mesh:
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/mesh/
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/mesh/
	$(GO) test -race -count=20 -skip 'UnderChaos|TestWubbleUMigratesOnAMesh' ./internal/mesh/

# The observability gate: every Stats()/snapshot accessor hammered
# concurrently with live faulted traffic under the race detector, plus
# the guards that the drive fanout hot path still allocates nothing
# with metrics disabled (the registry is pull-based, so shipping it
# must not move this number), nor a warmed word Send and the filtered
# Recv that takes it, and that no stream of sources a peer invents
# grows a component's inbox link table.
metrics:
	$(GO) vet ./internal/metrics/...
	$(GO) test -race -count=1 -run 'TestMetricsHammer' .
	$(GO) test -count=1 -run 'TestDriveFanoutZeroAlloc' ./internal/event/

# The timeline gate: the one recorder's package (the ring against its
# slice reference across limits, wraps and interleaved restores, its
# wrapped steady state at 0 allocs/op, the waveform exporters' VCD and
# text bytes, and the one subscriber seeing each recorded event once,
# in record order, one call at a time), determinism (the merged
# canonical export of the faulted two-node run is byte-identical
# across same-seed reruns), rewind semantics (rolled-back spans drop
# from the export), the timeline as the transport's one emission (on
# a faulted, resilient node pair every counted fault, epoch death and
# resume is an event, and each node records the channel it opened or
# accepted), and the disabled-path guard (the nil-recorder emitters
# and the drive fanout hot path stay at exactly 0 allocs/op with the
# timeline off).
timeline:
	$(GO) test -count=1 ./internal/timeline/
	$(GO) test -count=1 -run 'TestTimelineChaos' ./internal/experiments/
	$(GO) test -count=1 -run 'TestTransportEventsMatchStats' ./internal/node/
	$(GO) test -count=1 -run 'TestDriveFanoutZeroAlloc' ./internal/event/

# The wire gate: the zero-copy hot path's allocation guards (encode —
# tag-table values, a registered value and wubbleu's NetReq — decode,
# queue scan, the filtered Recv on both its inline and its parked path
# and the one-word batch-of-one flush must stay at 0 allocs/op
# steady-state, and a filtered poll that times out hands nothing to
# the next receive on another port; a cold page-load burst into an
# empty queue costs one allocation per 639-row chunk, each filling its
# size class, 16 bytes an event — its row; the evenly paced burst is one
# span of keys — and is released chunk by chunk as it drains; one page
# of int drives through a subsystem costs its 16-byte rows and 8-byte
# boxes, journaled under speculation or not, while a signal.Word >= 256
# is boxed into a 1 KB chunk shared by 256 words, on decode and along a
# word-level page end to end, and a signal.Frame that is not Last into
# a 1 152 B chunk shared by 16 frames on decode, the Last one alone,
# with the boxer run under the race detector's checkptr), the event
# queue's run/heap and route-table model test with the guards that an
# in-order burst never enters the heap, that a push joins the tail span
# exactly when it continues it (link, sequence, time step), that
# a run which never empties
# keeps storage and chunk table proportional to its depth and that no
# stream of names a peer sends grows a component's link table, the
# page-path guards (no one joins a 2 MB packet-level page: the ASIC
# forwards the radio payloads it buffered and the browser reads and
# caches the packets it received, so a load allocates the server's page
# once and a cached load re-serves the same parts; where a reader does
# ask for one slice the assembler joins the frames once, and a word page
# is handed out as the buffer its header sized; a send of parts makes
# the same drives as a send of their join at every level; the page is
# generated by the server in one allocation, with its bytes pinned by
# SHA-256; packets are
# capacity-clipped views of the page, only the Last one a copy, so no
# net's last value and no egress queue pins a page; no stream a
# peer sends makes an assembler hold more than its cap, nor a negative
# length header pass as idle), the two-node
# ping-pong in which the default egress
# policy may hold no lone message, the buffered-ingress table (split
# frames, bursts per read, oversized and hostile lengths, mid-frame errors,
# session rewinds) and the pump's burst, frame-kind and corrupt-entry
# rules (a frame at the byte cap reaches the endpoint in bursts of at
# most maxBurst; a long frame with a corrupt end loses the connection
# without a panic), the run-shaped data path (a 64-word frame is one
# Write of at most 10 bytes a word with no allocation; a page burst with
# no grant coming back is one unacked record and two frame-buffer
# allocations; the byte cap cuts and bounds frames; the egress queue and
# the pipe keep no value once it is sent or delivered; the decode
# cursor's bursts alias no payload; a frame is written where it was
# built), a TCP channel lost under a stalled run ending that run with
# the loss, the codec microbenchmarks, the cross-node stress tests and
# egress racing marks and flushes under the race detector, and — its
# prerequisite — the fuzz smoke
# pass. The peer vocabularies outside the batch codec are gated here
# too: the node hello/helloAck and the hardware-server RPC round-trip,
# refuse every hostile or pre-binary frame (a gob hello, a 2^62 length,
# an unknown kind, version or tag, trailing bytes) without a large
# allocation while the node and the server keep serving, and a remote
# register read costs at most 8 allocations. A bus cycle is boxed in a
# 3 KB chunk shared by 256 cycles, on decode and along a 64 KB
# hardware-level transfer end to end, and the hub's grant fan-out after
# a key publication and its flush at a stall allocate nothing, nor does
# an ingress burst through OnMessages and the step it injects. The
# safe-time protocol's model walks every interleaving of steps,
# publishes and FIFO deliveries among two or three bare protocol values
# to a bounded depth, checking the paper's invariants after every
# action (TestSafeTimeModel), and fuzz-smoke drives the same walk from a
# byte stream (FuzzSafeTime). The migration image is a closed layout
# over the same value codec: every field of core.Image, event.Event and
# core.NetImage and a value of every tag survive it, equal state encodes
# to equal bytes, an unregistered value type is refused at the source by
# name, hostile images (unknown version, kind or flag, addresses out of
# range or order, trailing bytes, lengths past a cap) are refused, and
# the restore rule holds across the wire. A session spec past a shape
# cap is refused before its footprint is computed. A resumable session's
# envelope is a wire frame too: one costs no allocation on ingress and
# at most its retained copy on egress, a header past the session cap is
# refused before any of its body is read, an older peer's hello is
# refused by its kind, every refused hello is on the timeline with its
# reason, the envelope round trip and the corruption
# verdicts hold, and the listener neither panics on Close with sessions
# no Accept took nor keeps a dead session (under the race detector).
# faultnet segments by the same convention, so a plain link shaped by
# latency, jitter and a bandwidth cap carries a thousand mixed frames
# whole and in order, and a word page with the clean run's result; on a
# link shaped by delay alone a frame costs no allocation, and a frame
# held back for a reorder is held as a copy of the writer's bytes.
wire: fuzz-smoke
	$(GO) test -count=1 -run 'TestCodecZeroAlloc|TestDecodePacketAmortizedAlloc|TestDecodeLargeWordsOneChunkPer256|TestDecodeFramesOneChunkPer16|TestDecodeBusCyclesOneChunkPer256|TestPublishZeroAlloc|TestPageBurstIsOneUnackedRun|TestPageEgressTwoBufferAllocs|TestCoalesceByteCap|TestFlushDropsPayloadReferences|TestPipeDropsDeliveredValues|TestCursorBurstsDoNotAliasThePayload|TestSafeTimeModel|TestOnMessagesZeroAlloc' ./internal/channel/ ./internal/wubbleu/
	$(GO) test -count=1 -run 'TestHello|TestConnectNamesAHandshakeFault|TestConnectUnknownSubsystem' ./internal/node/
	$(GO) test -count=1 -run 'TestRPC|TestServerSurvivesProtocolError|TestRemoteRunForPastTheCap|TestRemoteCallNamesABadResponse|TestRemoteCallAllocs' ./internal/hwstub/
	$(GO) test -count=1 -run 'TestSendFrameWord|TestPump|TestPingPong' ./internal/node/
	$(GO) test -count=1 -run 'TestRecvFrame|TestRecvBurst|TestWriteFrameInPlace' ./internal/wire/
	$(GO) test -count=1 -run 'TestQueueScanZeroAlloc|TestDriveFanoutZeroAlloc|TestQueueBurstAllocs|TestChunkFillsItsSizeClass|TestQueueModel|TestRunNeverEmptiesStaysSmall|TestInOrderBurstNeverHeaps|TestPacedBurstIsOneSpan' ./internal/event/
	$(GO) test -count=1 -run 'TestAssemblerErrors|TestAssemblerJoinsFramesOnce|TestAssemblerHandsOutWordBuffer|TestAssemblerBoundsTransferInProgress|TestSendPartsMatchesSendMessage|TestSendMessageAllocatesNoPartList|TestASICForwardsRadioPayloads|TestBrowserCachesPageAsReceived|TestGenPageAllocatesPageOnce|TestGenPageBytesPinned|TestSendPacketsShareThePayload|TestLastValuesPinNoPage|TestWordPageBoxesInChunks|TestHardwareTransferBoxesInChunks' ./internal/proto/ ./internal/wubbleu/
	$(GO) test -count=1 -run 'TestRecvFilteredZeroAlloc|TestRecvFilterChangeAfterTimeout|TestWordBurstBytesPerDelivery|TestComponentSizeClass|TestLinkTableBounded' ./internal/core/
	$(GO) test -count=1 -run 'TestPeerLostEndsStalledRun|TestBuildOnNodesTwoNodes' .
	$(GO) test -count=1 -run 'TestImageCarriesEveryField|TestImageValueTags|TestImageRefusesUnregisteredValue|TestDecodeRefusesHostileImages|TestExtractNetsOrderStable' ./internal/snapshot/
	$(GO) test -count=1 -run 'TestRestoreImageRule' ./internal/core/
	$(GO) test -count=1 -run 'TestSpecCaps' ./internal/service/
	$(GO) test -count=1 -run 'TestEnvelopeAllocs|TestOverCapHeaderRefusedUnread|TestPreEnvelopeHelloRefusedByKind|TestHelloRefusalReasons|TestEnvelopeRoundTrip|TestCorruptionCountsAsCrcKill' ./internal/resilience/
	$(GO) test -race -count=1 -run 'TestListenerCloseWithUnacceptedSessions|TestDeadSessionsLeaveTheListener' ./internal/resilience/
	$(GO) test -count=1 -run 'TestShapedPlainLinkCarriesWireFrames|TestDelayOnlyLinkAllocatesNothingAFrame|TestReorderHoldsACopy' ./internal/faultnet/
	$(GO) test -count=1 -run 'TestPlainLinkUnderLatency' ./internal/experiments/
	$(GO) test -race -count=1 -run 'TestBidirectionalStress|TestConcurrentFlushesKeepSeqOrder' ./internal/channel/
	$(GO) test -race -count=1 ./internal/wire/ ./internal/node/ ./internal/signal/ ./internal/hwstub/
	$(GO) test -run=^$$ -bench 'BenchmarkAppendBatch|BenchmarkDecodeBatchInto' -benchtime=1000x ./internal/channel/

# A few seconds of fuzzing per target: the frame parser on hostile
# streams, the batch decoder on arbitrary payloads (hostile lengths,
# retired encodings, extension values), the encode/decode round
# trip over tag-table and registered values, the assembler's Feed
# against the join of its FeedParts on any stream of values, the page
# parser on any bytes cut into any parts (the parts and their join
# parse alike, and a header claiming 2^32-1 images or html bytes
# allocates only what the input backs), the event queue against a
# sorted reference on any stream of calls, the safe-time model's
# invariants on any schedule of its actions, the node
# hello and helloAck and the hardware-server request and response
# decoders on arbitrary payloads (no panic, nothing past a named cap,
# what decodes re-encodes to the same value), the mesh control
# frame decoder the same way, re-encoding what it accepts to the same
# bytes, the migration image decoder the same way (what it decodes is
# bounded by its input and its caps, and re-encodes to an equal image),
# the resumable session's envelopes on any stream (a header past the
# cap refused as corruption, every accepted envelope re-encoding to its
# own bytes), and a session create request as JSON or form (every admitted spec has
# a positive footprint within what the shape caps allow). A direct ci
# prerequisite.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzFrameParser -fuzztime=3s ./internal/wire/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeBatch -fuzztime=3s ./internal/channel/
	$(GO) test -run=^$$ -fuzz=FuzzBatchRoundTrip -fuzztime=3s ./internal/channel/
	$(GO) test -run=^$$ -fuzz=FuzzAssembler -fuzztime=3s ./internal/proto/
	$(GO) test -run=^$$ -fuzz=FuzzParsePage -fuzztime=3s ./internal/wubbleu/
	$(GO) test -run=^$$ -fuzz=FuzzQueue -fuzztime=3s ./internal/event/
	$(GO) test -run=^$$ -fuzz=FuzzSafeTime -fuzztime=3s ./internal/channel/
	$(GO) test -run=^$$ -fuzz=FuzzHello$$ -fuzztime=3s ./internal/node/
	$(GO) test -run=^$$ -fuzz=FuzzHelloAck -fuzztime=3s ./internal/node/
	$(GO) test -run=^$$ -fuzz=FuzzHWRequest -fuzztime=3s ./internal/hwstub/
	$(GO) test -run=^$$ -fuzz=FuzzHWResponse -fuzztime=3s ./internal/hwstub/
	$(GO) test -run=^$$ -fuzz=FuzzMeshFrame -fuzztime=3s ./internal/mesh/
	$(GO) test -run=^$$ -fuzz=FuzzComponentImage -fuzztime=3s ./internal/snapshot/
	$(GO) test -run=^$$ -fuzz=FuzzSessionSpec -fuzztime=3s ./internal/service/
	$(GO) test -run=^$$ -fuzz=FuzzEnvelope -fuzztime=3s ./internal/resilience/

# The scheduler-core gate: the three-way equivalence matrix
# (sequential x conservative x optimistic over 50 random topologies,
# every worker count and window bit-identical), the straggler storm (a
# topology built so every speculative round rolls back, exactly
# converging anyway), the one worker pool (attached and run-owned
# bit-identical to sequential and to each other, fair-shared tenants,
# no worker outliving Run) and the ablation's structural invariants,
# all under the race detector, plus the guard that the disabled path
# — straggler span emission — stays at 0 allocs/op. Then what a
# simulation allocates before and between its rounds: a warmed
# speculative round allocates nothing (its sorts take no reflection
# swapper), a component's ports and a subsystem's nets and port lists
# are exact slabs, Partition matches its map-and-sort reference on
# seeded random views (after moves too) in a fixed number of
# allocations without writing to the view or letting one fragment's
# append reach another's ports, and building the 16-lane fan stays
# under its bound.
optimistic:
	$(GO) test -race -count=1 -run 'TestParallelEquivalenceProperty|TestOptimisticStragglerStorm|TestOptimisticThrottleAdapts|TestSharedPool|TestParallelPoolRestart' ./internal/core/
	$(GO) test -race -count=1 -run 'TestOptimistic' ./internal/experiments/
	$(GO) test -count=1 -run 'TestDisabledTimelineZeroAlloc' ./internal/timeline/
	$(GO) test -count=1 -run 'TestWarmSpeculativeRoundZeroAlloc|TestNewNetsSlabs|TestNewComponentPortSlab' ./internal/core/
	$(GO) test -count=1 -run 'TestPartitionMatchesReference|TestCompareRefsIsStringOrder|TestFragmentsDoNotShareAppends|TestPartitionAllocs' ./internal/graph/
	$(GO) test -count=1 -run 'TestBuildLocalAllocs' .

# The multi-tenant service gate: the whole catalog package (session
# lifecycle, concurrent churn, shared-listener attach, HTTP API)
# under the race detector, the fair-share determinism proof (tenant
# digests bit-identical to isolated runs at every pool size; the pool
# itself is gated in `optimistic`), and the edge that stands a node up:
# the link flags both commands share (one argv rendered field by field
# into the fault and session configs, the usage text pinned), pianode's
# flag table and validate (every conflict message, every flag a mode
# does not read, every documented invocation), its bring-up and
# teardown under each observer set with no goroutine or listener left
# behind, its observability-mux suite, and wubbleu's two conflicts.
service:
	$(GO) test -race -count=1 ./internal/service/
	$(GO) test -race -count=1 -run 'TestSessionsExperiment' ./internal/experiments/
	$(GO) test -count=1 -run 'TestLinkFlags' ./internal/node/
	$(GO) test -race -count=1 -run 'TestValidate|TestEveryFlagHasReaders|TestBringUpTearDown' ./cmd/pianode/
	$(GO) test -count=1 ./cmd/pianode/ ./cmd/wubbleu/

# The flight-recorder gate: the flight package (ring, trips, watcher
# backpressure, SSE end-to-end, sampler) under the race detector, then
# by name and repeated: the one recorder streaming each transition from
# 8 concurrent writers with its ring entry's seq and stamp, in seq
# order, and the sampler's ticker sampling on its own and forgetting a
# series that vanishes; the extended hammer (live /watch client +
# deliberately stalled client + /debug/flight served concurrently with
# faulted traffic), and the zero-alloc guards for every disabled and
# steady-state hot path the flight stack touches (nil recorder,
# enabled ring record, attribution accounting).
obs:
	$(GO) vet ./internal/flight/...
	$(GO) test -race -count=1 ./internal/flight/
	$(GO) test -race -count=10 -run 'TestRecordStreamsInSeqOrder|TestSamplerStartStop|TestSamplerForgetsVanishedSeries' ./internal/flight/
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
# Table 1 experiments still run end to end, then one second of each
# bench/ workload: the program
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
