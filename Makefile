GO ?= go

.PHONY: tier1 fmt vet build cross test race bench bench-smoke fuzz-smoke cover trace experiments

# tier1 is the CI gate: formatting, vet, build, the full test suite under the
# race detector (the recovery layer is concurrent by construction; every claim
# the repo makes — serving contracts over loopback HTTP, spill and chaos
# replays, CLI report parity across flag sets — is a Go test),
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

# cross proves the portable path where the amd64 assembly
# (internal/stats/kernel_amd64.s: the AVX2 walks packedRows4 and cellPairs,
# the AVX-512F two-tile walk tilePairs and the panel kernel's lane-list
# compaction compactChunks; internal/data/pack_amd64.s: the canonical text
# codec's AVX2 packCanon64 and cpuFeatures, the one CPUID check both packages
# read) is absent: arm64 vets, and the whole test suite runs on 386 — natively on
# an amd64 Linux host — where packedRowScore scores every row, the Go sumCells
# is the whole cell walk, compactBytes the whole compaction and
# packCanonical's word loop the whole row. That Go path is also what an amd64
# host without AVX2 runs. On amd64, vet's asmdecl pass checks the six
# routines' frame offsets against their Go declarations.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) test ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the root package's benchmarks (the engine ablations and
# baselines) and the Cox score ablations, which live beside their oracles in
# internal/stats.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x
	$(GO) test ./internal/stats -run '^$$' -bench=Ablation -benchmem -benchtime=1x

# bench-smoke proves the fused-chain benchmarks still run (allocation numbers
# are asserted by TestFusedChainAllocsIndependentOfSize; this guards the
# benchmark harness itself; TestBenchSmokeNamesExistingBenchmarks checks that
# every -bench pattern below still names a benchmark, since one that matches
# nothing passes), that the wide kernel's benchmark at the
# eqtl_wide shape still builds its fixture and reports Mpairs/s — beside it
# the all-pairs fold at that shape, the kernel's rows through the cut-off
# accumulator, one task's worth — and that the
# Monte Carlo panel kernel's benchmark still builds mc_cached's packed matrix
# (500 and 1000 patients × 20 000 SNPs) and reports ns/elem-replicate at
# b = 1, one tile and core's batch width, the kernel built once and shared
# by every pass as a job's fold tasks share it — the rows compacted 32
# patients a step by compactChunks in AVX2 and the cell lists walked two per
# call over two tiles by tilePairs in AVX-512F, on an amd64 host that has
# them — and that Algorithm 2's two kernels
# still report ns/genotype at perm_scan's row width: the ingest's
# ParseGenoText over canonical partition text (the line ends found as it
# packs, 64 text bytes per AVX2 step on amd64) — one 256-row block's text,
# which stays in cache, and a 10 000-row, 20 MB text, which does not — and
# the packed-row score kernel (four rows per call in AVX2 assembly) on a
# 256 × 1000 block — and that a reduce-by-key job at the set-sum shape
# (10 map × 10 reduce partitions, 100 keys, []float64 values) still reports
# allocs/op, where one combining map per (map task, bucket) would show again —
# and that input set-up's two layers still report their rates at perm_scan's
# shape (1 000 patients × 10 000 SNPs): the Section III generator in ns per
# genotype (rows drawn in parallel, each with the branch-free draw) and the
# genotype text encoder in MB/s, into a bytes.Buffer (grown once, encoded in
# place) and into io.Discard (one batch's scratch) — and that the -dir
# genotype reader (the table scan over the scan's own row codec) still
# reports ns/genotype and allocs/op reading that matrix's 20 MB text back.
bench-smoke:
	$(GO) test ./internal/rdd -run FusedNone -bench FusedChain -benchmem -benchtime=10x
	$(GO) test ./internal/rdd -run '^$$' -bench ReduceByKeyCombine -benchmem -benchtime=10x
	$(GO) test ./internal/stats -run '^$$' -bench 'WideKernel/eqtl_wide' -benchmem -benchtime=3x
	$(GO) test ./internal/assoc -run '^$$' -bench 'Fold/eqtl_wide' -benchmem -benchtime=3x
	$(GO) test ./internal/stats -run '^$$' -bench PackedPanel -benchtime=3x
	$(GO) test ./internal/data -run '^$$' -bench ParseGenoText -benchtime=3x
	$(GO) test ./internal/stats -run '^$$' -bench PackedRowScores -benchtime=3x
	$(GO) test ./internal/gen -run '^$$' -bench Genotypes -benchtime=3x
	$(GO) test ./internal/data -run '^$$' -bench WriteGenotypes -benchmem -benchtime=3x
	$(GO) test ./internal/data -run '^$$' -bench ReadGenotypes -benchmem -benchtime=3x

# fuzz-smoke gives each native fuzz target a 10s budget on top of its checked-in
# seed corpus (testdata/fuzz). The targets assert the GenoBlock and
# phenotype-matrix text codecs round-trip whatever they accept, the one-pass
# genotype text splitter yields the blocks and errors of the line-at-a-time
# oracle (bytes.Split, then ParseGenoBlock per 256 lines) on arbitrary
# partition text, patient counts and keep-sets, the -dir genotype reader
# accepts a row exactly when ParseGenoText packs it (refusing it in the scan's
# words) and round-trips what it accepts through WriteGenotypes, the weights
# and phenotype readers accept only finite values (NaN and ±Inf are errors
# naming the line) and round-trip those through their writers, the
# spill-frame reader (a bounds-checked gob frame of raw pairs in arrival
# order; no arrival index, nothing to re-sort) returns errors instead of
# panicking on arbitrary bytes or on a frame of a foreign record type, the
# event-log reader never panics and whatever it accepts renders to a fixed
# point through the writer, every column of the Monte Carlo panel kernel equals PackedRowScores on that
# column bit for bit, the panel kernel's lane lists compacted in AVX2 equal
# the Go loop's (lists and ends) on arbitrary packed rows, missing codes,
# all-zero and all-non-zero rows and every chunk, tail and partial-byte
# boundary included, PackedRowScores equals its written summation order
# bit for bit (or NaN both) on arbitrary packed bytes and residuals, and the
# two-list cell walk equals two sumCells calls and the two-tile walk four
# (equal bits or NaN both, or the same panic on an out-of-range index) on
# arbitrary tile bits and lists, in Go, in AVX2 and in AVX-512F, and
# the all-pairs accumulator's χ² cut-offs leave its partial equal to the exact
# path's (Tested, top-K bits, BH result) on arbitrary score and variance
# streams, NaN, ±Inf, zeros, subnormals and ties included, its χ² histogram
# bins equal the p-value's bin on arbitrary χ² (every edge ±1 and ±2 ulps,
# every bracket end, 0, subnormals, +Inf and NaN seeded), the wide kernel's
# rows equal per-phenotype PackedRowScores/Variance bit for bit on arbitrary
# packed bytes (every code, padding included) and batch shapes, the generator's
# integer-threshold Bernoulli draw equals Float64() < ρ, the SNP-set and
# covariate readers return errors or round-trip through their writers, and
# the serving-pool parser returns an error or a valid configuration that
# re-encodes to itself — never a panic, nor data after the array accepted —
# and the job request decoder, on arbitrary bodies for each of the four
# request types, returns an error or a request that re-encodes to a body it
# decodes to an equal request.
# Every native fuzz target in the repository is listed here.
fuzz-smoke:
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzGenoBlockTextRoundTrip -fuzztime=10s
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzParseGenoText -fuzztime=10s
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzPhenoMatrixRoundTrip -fuzztime=10s
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzReadGenotypes -fuzztime=10s
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzReadWeights -fuzztime=10s
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzReadPhenotype -fuzztime=10s
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzReadSNPSets -fuzztime=10s
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzReadCovariates -fuzztime=10s
	$(GO) test ./internal/rdd -run='^$$' -fuzz=FuzzDecodeFrameBytes -fuzztime=10s
	$(GO) test ./internal/rdd -run='^$$' -fuzz=FuzzReadEventLog -fuzztime=10s
	$(GO) test ./internal/stats -run='^$$' -fuzz=FuzzPanelKernel -fuzztime=10s
	$(GO) test ./internal/stats -run='^$$' -fuzz=FuzzPanelCompaction -fuzztime=10s
	$(GO) test ./internal/stats -run='^$$' -fuzz=FuzzPackedRowScores -fuzztime=10s
	$(GO) test ./internal/stats -run='^$$' -fuzz=FuzzSumCellPairs -fuzztime=10s
	$(GO) test ./internal/stats -run='^$$' -fuzz=FuzzWideKernelRows -fuzztime=10s
	$(GO) test ./internal/assoc -run='^$$' -fuzz=FuzzAccumulatorCutoff -fuzztime=10s
	$(GO) test ./internal/assoc -run='^$$' -fuzz=FuzzChi2Bins -fuzztime=10s
	$(GO) test ./internal/gen -run='^$$' -fuzz=FuzzBernoulliThreshold -fuzztime=10s
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzParsePools -fuzztime=10s
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzJobRequestBodies -fuzztime=10s

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

# trace records a seeded run of the quickstart's shape as an event log and
# renders its Chrome-trace timeline from the log, leaving both next to the
# repo root (open the JSON in chrome://tracing or ui.perfetto.dev).
trace:
	$(GO) run ./cmd/sparkscore -generate -patients 500 -snps 2000 -sets 50 -seed 1 \
		-method mc -iterations 1000 -events quickstart.events.jsonl
	$(GO) run ./cmd/sparkui -log quickstart.events.jsonl -trace quickstart.trace.json

# experiments regenerates the two checked-in renderings of the paper's
# evaluation: experiments_scale100.txt (what EXPERIMENTS.md quotes) and the
# small-scale cut harness.TestPaperArtifactsMatchGolden compares byte for byte
# on every `go test` — benchtab -exp all's output above its wall-time footer
# (the footer is a blank line and the `benchtab:` lines). Every digit is
# counted work on the virtual clock, so both files are functions of the
# source tree; this target is the only writer of either.
GOLDEN = internal/harness/testdata/paper_scale2000.txt
experiments:
	$(GO) run ./cmd/benchtab -exp all -scale 100 > experiments_scale100.txt
	$(GO) run ./cmd/benchtab -exp all -scale 2000 -max-iters 640 > $(GOLDEN).part
	sed '/^benchtab: /d' $(GOLDEN).part | sed '$$d' > $(GOLDEN)
	rm -f $(GOLDEN).part
