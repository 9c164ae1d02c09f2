GO ?= go

.PHONY: tier1 fmt vet build test race bench bench-smoke eventlog-smoke server-smoke speculation-smoke spill-smoke adaptive-smoke eqtl-smoke fuzz-smoke cover bench-refresh trace experiments

# tier1 is the CI gate: formatting, vet, build, the full test suite under the
# race detector (the recovery layer is concurrent by construction), a smoke
# run of the streaming-execution benchmarks, an event-log round trip through
# the real CLIs, the job-server self-test over real HTTP (including deadline
# cancellation freeing its pool slot), the speculation ablation's >= 3x
# straggler-mitigation claim, the sort shuffle's spill-and-match claim under a
# memory cap below its per-task working set, the adaptive planner's bitwise
# parity and skew-mitigation claims, the all-pairs eQTL engine's
# broadcast/cartesian parity and chaos-recovery claims, and the per-package
# coverage floors in coverage_baseline.txt. Nothing in tier1 writes into the
# tree; the committed BENCH_*.json snapshots are refreshed only by the explicit
# bench-refresh target.
tier1: fmt vet build race bench-smoke eventlog-smoke server-smoke speculation-smoke spill-smoke adaptive-smoke eqtl-smoke cover

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x

# bench-smoke proves the fused-chain benchmarks still run (allocation numbers
# are asserted by TestFusedChainAllocsIndependentOfSize; this guards the
# benchmark harness itself), and that the wide kernel's benchmark at the
# eqtl_wide shape still builds its fixture and reports Mpairs/s.
bench-smoke:
	$(GO) test ./internal/rdd -run FusedNone -bench FusedChain -benchmem -benchtime=10x
	$(GO) test ./internal/stats -run '^$$' -bench 'WideKernel/eqtl_wide' -benchmem -benchtime=3x

# eventlog-smoke exercises the observability surface end to end: a small
# sparkscore run emits a JSONL event log, and sparkui must parse it back and
# render the job/stage tables without error.
eventlog-smoke:
	$(GO) run ./cmd/sparkscore -generate -patients 80 -snps 400 -sets 8 -iterations 8 \
		-events $${TMPDIR:-/tmp}/sparkscore-smoke.jsonl > /dev/null
	$(GO) run ./cmd/sparkui -log $${TMPDIR:-/tmp}/sparkscore-smoke.jsonl > /dev/null
	@echo "eventlog-smoke: emit + reparse ok"

# server-smoke starts sparkserved on a loopback port, submits score, SKAT,
# and resampling jobs over real HTTP, asserts the responses match the batch
# path bit for bit, and exercises queue-full backpressure (429 + Retry-After),
# deadline cancellation (timeout_ms -> 408, slot freed, next request matches
# batch), and graceful drain (in-flight finishes, new requests get 503).
server-smoke:
	$(GO) run ./cmd/sparkserved -smoke

# speculation-smoke runs the speculation ablation at small scale; the harness
# itself fails unless speculative copies beat the 8x-straggler baseline by at
# least 3x while launching no copies on straggler-free runs.
speculation-smoke:
	$(GO) run ./cmd/benchtab -exp speculation

# spill-smoke squeezes the unified memory pool far below the score pipeline's
# shuffle working set: the sort shuffle must spill (the run prints its spill
# accounting) yet produce a per-set report byte-identical to the uncapped run.
# Then the memory experiment (capped chaos replay + working-set measurement)
# asserts its own claims.
spill-smoke:
	$(GO) run ./cmd/sparkscore -generate -patients 60 -snps 300 -sets 6 -iterations 10 \
		-out $${TMPDIR:-/tmp}/sparkscore-uncapped.tsv > /dev/null
	$(GO) run ./cmd/sparkscore -generate -patients 60 -snps 300 -sets 6 -iterations 10 \
		-mem-cap-bytes 4096 -workers 1 \
		-out $${TMPDIR:-/tmp}/sparkscore-spill.tsv | grep -q "shuffle spills:"
	cmp $${TMPDIR:-/tmp}/sparkscore-uncapped.tsv $${TMPDIR:-/tmp}/sparkscore-spill.tsv
	$(GO) run ./cmd/benchtab -exp memory
	@echo "spill-smoke: capped sort report identical to uncapped"

# adaptive-smoke runs the same analysis with the adaptive planner off and on
# and diffs the reports byte for byte (coalescing and skew splitting must be
# invisible in results), then runs the adaptive ablation (which itself asserts
# parity, a >= 1.3x stage-time win on the skewed scenario, and coalescing on
# the partition-dust scenario).
adaptive-smoke:
	$(GO) run ./cmd/sparkscore -generate -patients 60 -snps 300 -sets 6 -iterations 10 \
		-adaptive=false -out $${TMPDIR:-/tmp}/sparkscore-static.tsv > /dev/null
	$(GO) run ./cmd/sparkscore -generate -patients 60 -snps 300 -sets 6 -iterations 10 \
		-adaptive=true -out $${TMPDIR:-/tmp}/sparkscore-adaptive.tsv > /dev/null
	cmp $${TMPDIR:-/tmp}/sparkscore-static.tsv $${TMPDIR:-/tmp}/sparkscore-adaptive.tsv
	$(GO) run ./cmd/benchtab -exp adaptive
	@echo "adaptive-smoke: adaptive and static reports identical"

# eqtl-smoke runs the all-pairs eQTL engine three ways over the same generated
# input — broadcast join, cartesian block join, and broadcast again under
# injected chaos — and diffs the three reports byte for byte, then runs the
# eqtl experiment (which itself asserts parity at two shapes and chaos
# recovery with byte-stable stripped replay logs).
eqtl-smoke:
	$(GO) run ./cmd/sparkscore -eqtl -generate -patients 80 -snps 400 -sets 8 \
		-eqtl-phenos 12 -out $${TMPDIR:-/tmp}/sparkscore-eqtl-bcast.tsv > /dev/null
	$(GO) run ./cmd/sparkscore -eqtl -generate -patients 80 -snps 400 -sets 8 \
		-eqtl-phenos 12 -eqtl-strategy cartesian -out $${TMPDIR:-/tmp}/sparkscore-eqtl-cart.tsv > /dev/null
	$(GO) run ./cmd/sparkscore -eqtl -generate -patients 80 -snps 400 -sets 8 \
		-eqtl-phenos 12 -chaos -out $${TMPDIR:-/tmp}/sparkscore-eqtl-chaos.tsv > /dev/null
	cmp $${TMPDIR:-/tmp}/sparkscore-eqtl-bcast.tsv $${TMPDIR:-/tmp}/sparkscore-eqtl-cart.tsv
	cmp $${TMPDIR:-/tmp}/sparkscore-eqtl-bcast.tsv $${TMPDIR:-/tmp}/sparkscore-eqtl-chaos.tsv
	$(GO) run ./cmd/benchtab -exp eqtl
	@echo "eqtl-smoke: broadcast, cartesian, and chaos reports identical"

# fuzz-smoke gives each native fuzz target a 10s budget on top of its checked-in
# seed corpus (testdata/fuzz). The targets assert the GenoBlock and
# phenotype-matrix text codecs round-trip whatever they accept and the
# spill-frame reader returns errors instead of panicking on arbitrary bytes.
fuzz-smoke:
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzGenoBlockTextRoundTrip -fuzztime=10s
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzPhenoMatrixRoundTrip -fuzztime=10s
	$(GO) test ./internal/rdd -run='^$$' -fuzz=FuzzDecodeFrameBytes -fuzztime=10s

# cover enforces the per-package statement-coverage floors recorded in
# coverage_baseline.txt: <package> <min-percent> per line, '#' comments
# ignored. A package dropping below its floor fails tier-1.
cover:
	@fail=0; \
	while read -r pkg min; do \
		case "$$pkg" in ''|\#*) continue;; esac; \
		line=$$($(GO) test -count=1 -cover "$$pkg" 2>&1 | grep -E '^ok .*coverage:'); \
		if [ -z "$$line" ]; then echo "cover: no coverage line for $$pkg"; fail=1; continue; fi; \
		pct=$$(echo "$$line" | sed -E 's/.*coverage: ([0-9.]+)% of statements.*/\1/'); \
		ok=$$(awk -v p="$$pct" -v m="$$min" 'BEGIN { print (p >= m) ? 1 : 0 }'); \
		if [ "$$ok" = 1 ]; then \
			echo "cover: $$pkg $$pct% (floor $$min%)"; \
		else \
			echo "cover: $$pkg $$pct% BELOW floor $$min%"; fail=1; \
		fi; \
	done < coverage_baseline.txt; \
	exit $$fail

# bench-refresh regenerates the committed BENCH_*.json snapshots, one
# experiment per benchtab run (-exp takes a single id). It is the only target
# that rewrites committed files; run it deliberately and commit the result.
bench-refresh:
	$(GO) run ./cmd/benchtab -exp speculation -json
	$(GO) run ./cmd/benchtab -exp memory -json
	$(GO) run ./cmd/benchtab -exp adaptive -json
	$(GO) run ./cmd/benchtab -exp eqtl -json

# trace runs the quickstart with a timeline listener and leaves a Chrome-trace
# JSON next to the repo root (open in chrome://tracing or ui.perfetto.dev).
trace:
	$(GO) run ./examples/quickstart -trace quickstart.trace.json

experiments:
	$(GO) run ./cmd/benchtab -exp all -scale 100 -reps 2
