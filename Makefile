GO ?= go

.PHONY: tier1 fmt vet build cross test race bench bench-smoke fuzz-smoke cover trace experiments

# tier1 is the CI gate: formatting, vet, build, the full test suite under the
# race detector (the recovery layer is concurrent by construction; every claim
# the repo makes — serving contracts over loopback HTTP, the extension
# experiments' assertions, CLI report parity across flag sets — is a Go test),
# a smoke run of the benchmarks bench-smoke names, and the per-package
# coverage floors in coverage_baseline.txt. Nothing in tier1 writes into the
# tree.
tier1: fmt vet build cross race bench-smoke cover

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# cross proves the portable path compiles and vets where the amd64 assembly
# (internal/stats/kernel_amd64.s: packedRows4 and the two-list cell walk
# cellPairs; internal/data/pack_amd64.s: the canonical text codec's
# packCanon64) is absent: a 64-bit and a 32-bit GOARCH, where the Go sumCells
# is the whole walk and packCanonical's word loop the whole row. On amd64,
# vet's asmdecl pass checks the three routines' frame offsets against their
# Go declarations.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x

# bench-smoke proves the fused-chain benchmarks still run (allocation numbers
# are asserted by TestFusedChainAllocsIndependentOfSize; this guards the
# benchmark harness itself), that the wide kernel's benchmark at the
# eqtl_wide shape still builds its fixture and reports Mpairs/s — beside it
# the all-pairs fold at that shape, the kernel's rows through the cut-off
# accumulator, one task's worth — and that the
# Monte Carlo panel kernel's benchmark still builds mc_cached's packed matrix
# (500 and 1000 patients × 20 000 SNPs) and reports ns/elem-replicate at
# b = 1, one tile and core's batch width, table build counted — both walk
# their cell lists two per call through the SSE2 routine cellPairs on amd64 —
# and that Algorithm 2's two kernels still report ns/genotype at perm_scan's
# row width: the ingest's ParseGenoBlock over a block of byte lines, canonical
# rows (64 text bytes per SSE2 step on amd64) and one-tab rows the tokenizer
# decides, and the packed-row score kernel (four rows per call in amd64
# assembly) on a 256 × 1000 block.
bench-smoke:
	$(GO) test ./internal/rdd -run FusedNone -bench FusedChain -benchmem -benchtime=10x
	$(GO) test ./internal/stats -run '^$$' -bench 'WideKernel/eqtl_wide' -benchmem -benchtime=3x
	$(GO) test ./internal/assoc -run '^$$' -bench 'Fold/eqtl_wide' -benchmem -benchtime=3x
	$(GO) test ./internal/stats -run '^$$' -bench PackedPanel -benchtime=3x
	$(GO) test ./internal/data -run '^$$' -bench ParseGenoBlock -benchtime=3x
	$(GO) test ./internal/stats -run '^$$' -bench PackedRowScores -benchtime=3x

# fuzz-smoke gives each native fuzz target a 10s budget on top of its checked-in
# seed corpus (testdata/fuzz). The targets assert the GenoBlock and
# phenotype-matrix text codecs round-trip whatever they accept, the weights
# and phenotype readers accept only finite values (NaN and ±Inf are errors
# naming the line) and round-trip those through their writers, the
# spill-frame reader (a bounds-checked gob frame of raw pairs in arrival
# order; no arrival index, nothing to re-sort) returns errors instead of
# panicking on arbitrary bytes or on a frame of a foreign record type, the
# event-log reader never panics and whatever it accepts renders to a fixed
# point through the writer, every column of the Monte Carlo panel kernel equals PackedRowScores on that
# column bit for bit, PackedRowScores equals its written summation order
# bit for bit (or NaN both) on arbitrary packed bytes and residuals, and the
# two-list cell walk equals two sumCells calls (equal bits or NaN both, or the
# same panic on an out-of-range index) on arbitrary tile bits and lists, and
# the all-pairs accumulator's χ² cut-offs leave its partial equal to the exact
# path's (Tested, top-K bits, BH result) on arbitrary score and variance
# streams, NaN, ±Inf, zeros, subnormals and ties included.
fuzz-smoke:
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzGenoBlockTextRoundTrip -fuzztime=10s
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzPhenoMatrixRoundTrip -fuzztime=10s
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzReadWeights -fuzztime=10s
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzReadPhenotype -fuzztime=10s
	$(GO) test ./internal/rdd -run='^$$' -fuzz=FuzzDecodeFrameBytes -fuzztime=10s
	$(GO) test ./internal/rdd -run='^$$' -fuzz=FuzzReadEventLog -fuzztime=10s
	$(GO) test ./internal/stats -run='^$$' -fuzz=FuzzPanelKernel -fuzztime=10s
	$(GO) test ./internal/stats -run='^$$' -fuzz=FuzzPackedRowScores -fuzztime=10s
	$(GO) test ./internal/stats -run='^$$' -fuzz=FuzzSumCellPairs -fuzztime=10s
	$(GO) test ./internal/assoc -run='^$$' -fuzz=FuzzAccumulatorCutoff -fuzztime=10s

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

# trace runs the quickstart with a timeline listener and leaves a Chrome-trace
# JSON next to the repo root (open in chrome://tracing or ui.perfetto.dev).
trace:
	$(GO) run ./examples/quickstart -trace quickstart.trace.json

# experiments regenerates the two checked-in renderings of the paper's
# evaluation: experiments_scale100.txt (what EXPERIMENTS.md quotes) and the
# small-scale cut harness.TestPaperArtifactsMatchGolden compares byte for byte
# on every `go test` — benchtab's output above its wall-time footer for the
# ids that test lists. Every digit is counted work on the virtual clock, so
# both files are functions of the source tree; this target is the only writer
# of either.
GOLDEN = internal/harness/testdata/paper_scale2000.txt
experiments:
	$(GO) run ./cmd/benchtab -exp all -scale 100 > experiments_scale100.txt
	rm -f $(GOLDEN)
	for id in tab1 fig2 fig3 fig4 fig5 fig6 fig7 chaos; do \
		$(GO) run ./cmd/benchtab -exp $$id -scale 2000 -max-iters 640 > $(GOLDEN).part || exit 1; \
		sed '/^benchtab: /d' $(GOLDEN).part >> $(GOLDEN); \
	done; rm -f $(GOLDEN).part
