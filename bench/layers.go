// Per-layer replays. After a workload's traced passes, the benchmark calls
// each layer's public functions directly on the workload's staged input,
// single-threaded (engine replays run on a one-worker context), so a layer's
// cost is known by itself and a pass's fused task compute can be apportioned:
// what the replays do not explain is the pipeline's own time (*.self_cpu_s).

package main

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sparkscore/internal/core"
	"sparkscore/internal/data"
	"sparkscore/internal/rdd"
	"sparkscore/internal/rng"
	"sparkscore/internal/stats"
)

const (
	// blockRows is the SNP rows per packed block, the ingest's block shape in
	// both pipelines.
	blockRows = 256
	// kernelReplayBlocks bounds the blocks the kernel replays keep resident
	// (32 blocks of contributions for 1000 patients are 65 MB).
	kernelReplayBlocks = 32
	// widePairsTarget is how many pairs the wide-kernel replay scores.
	widePairsTarget = 1 << 20
)

// suiteEnv is what every replay suite needs.
type suiteEnv struct {
	m   metricSet
	in  *inputs
	log io.Writer
}

// genotypes is the number of genotype values in the workload's matrix.
func (in *inputs) genotypes() float64 { return float64(in.shape.SNPs) * float64(in.shape.Patients) }

// parsePack replays the ingest's inner loop over the whole genotype text:
// split lines, read the SNP id, pack the fields into 2-bit blocks.
func parsePack(text string, patients int) ([]data.GenoBlock, error) {
	var blocks []data.GenoBlock
	blk := data.NewGenoBlock(patients, blockRows)
	for rest := text; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		id, fields, ok := strings.Cut(line, "\t")
		snp, err := strconv.Atoi(id)
		if !ok || err != nil {
			return nil, fmt.Errorf("genotype line %q…: no SNP id", line[:min(len(line), 16)])
		}
		if err := blk.AppendTextRow(snp, fields); err != nil {
			return nil, fmt.Errorf("SNP %d: %w", snp, err)
		}
		if blk.Rows() == blockRows {
			blocks = append(blocks, blk)
			blk = data.NewGenoBlock(patients, blockRows)
		}
	}
	if blk.Rows() > 0 {
		blocks = append(blocks, blk)
	}
	return blocks, nil
}

// scanSuite replays the scan path every workload shares — DFS read, text
// split, parse+pack — and the engine's per-task and per-record overheads at
// the workload's partition count. It returns the packed blocks for the kernel
// replays.
func scanSuite(e suiteEnv) ([]data.GenoBlock, error) {
	m, in := e.m, e.in
	ctx, err := newContext(in.seed, ctxOptions{workers: 1})
	if err != nil {
		return nil, err
	}
	if err := in.stage(ctx); err != nil {
		return nil, err
	}
	mb := float64(len(in.geno)) / 1e6

	m["dfs.readall_mb_per_s"] = mb / medianOf(5, func() {
		if _, rerr := ctx.FS().ReadAll(genoPath); rerr != nil {
			err = rerr
		}
	})
	parts := 0
	m["rdd.textscan_mb_per_s"] = mb / medianOf(3, func() {
		lines, terr := ctx.TextFile(genoPath, 0)
		if terr != nil {
			err = terr
			return
		}
		parts = lines.Partitions()
		if _, cerr := rdd.Count(lines); cerr != nil {
			err = cerr
		}
	})
	if err != nil {
		return nil, err
	}

	text := string(in.geno)
	var blocks []data.GenoBlock
	parseSec := medianOf(3, func() {
		if b, perr := parsePack(text, in.shape.Patients); perr != nil {
			err = perr
		} else {
			blocks = b
		}
	})
	if err != nil {
		return nil, err
	}
	m["data.parse_pack_ns_per_genotype"] = parseSec * 1e9 / in.genotypes()
	m["data.parse_pack_mb_per_s"] = mb / parseSec

	// Job, stage and task overhead: count a cached RDD of one trivial element
	// per partition, many times over.
	const emptyJobs = 200
	trivial := rdd.Parallelize(ctx, make([]int, parts), parts).Cache()
	count := func() {
		if _, cerr := rdd.Count(trivial); cerr != nil {
			err = cerr
		}
	}
	count()
	m["rdd.empty_task_us"] = timed(func() {
		for i := 0; i < emptyJobs; i++ {
			count()
		}
	}) * 1e6 / float64(emptyJobs*parts)
	if err != nil {
		return nil, err
	}

	// Shuffle cost per record: one replicate's join-and-reduce over one score
	// per SNP, minus the same jobs over no records at all.
	records := in.shape.SNPs
	sets := max(in.shape.Sets, 1)
	weights := make([]rdd.KV[int, float64], records)
	scores := make([]rdd.KV[int, float64], records)
	for j := range weights {
		weights[j] = rdd.KV[int, float64]{K: j, V: 1}
		scores[j] = rdd.KV[int, float64]{K: j, V: float64(j)}
	}
	replicate := func(w, s []rdd.KV[int, float64]) float64 {
		cached := rdd.Parallelize(ctx, w, 1).SetSizeHint(16).Cache()
		return medianOf(7, func() {
			inner := rdd.Parallelize(ctx, s, parts).SetSizeHint(16)
			bySet := rdd.Map(rdd.Join(cached, inner, 0), "bySet",
				func(kv rdd.KV[int, rdd.JoinPair[float64, float64]]) rdd.KV[int, float64] {
					return rdd.KV[int, float64]{K: kv.K % sets, V: kv.V.Left * kv.V.Right}
				}).SetSizeHint(16)
			sum := rdd.ReduceByKey(bySet, func(x, y float64) float64 { return x + y }, 0)
			if _, cerr := rdd.CollectAsMap(sum); cerr != nil {
				err = cerr
			}
		})
	}
	full, empty := replicate(weights, scores), replicate(nil, nil)
	if err != nil {
		return nil, err
	}
	m["rdd.shuffle_ns_per_record"] = (full - empty) * 1e9 / float64(records)
	return blocks, nil
}

// coreWork says how much of each replayed layer one traced unit of a SKAT
// workload (a pass, or a served segment) executes, and what its tasks
// measured in total.
type coreWork struct {
	scans       int     // times the matrix is parsed, packed and scored
	scorePasses int     // times UBlock.Scores sweeps the whole of U
	taskCompute float64 // seconds
}

// coreSuite replays the SKAT pipeline's layers: the Cox kernel, the mat-vec
// over U, a cached-read job, the pipeline's own entry points one call at a
// time, and the single-threaded reference of the same problem.
func coreSuite(e suiteEnv, blocks []data.GenoBlock, work coreWork) error {
	m, in := e.m, e.in
	ph, err := data.ReadPhenotype(bytes.NewReader(in.pheno))
	if err != nil {
		return err
	}
	var model stats.Model
	m["stats.model_build_ms"] = 1000 * medianOf(5, func() {
		model, err = stats.NewAdjustedModel(coreOptions(in.seed).Family, ph, nil)
	})
	if err != nil {
		return err
	}

	blocks = blocks[:min(len(blocks), kernelReplayBlocks)]
	elems := 0.0
	for i := range blocks {
		elems += float64(blocks[i].Rows() * in.shape.Patients)
	}
	kernel := stats.NewBlockKernel(model)
	ublocks := make([]stats.UBlock, len(blocks))
	m["stats.contrib_ns_per_genotype"] = 1e9 / elems * medianOf(3, func() {
		for i, blk := range blocks {
			ublocks[i] = kernel.Contributions(blk)
		}
	})

	z := make([]float64, in.shape.Patients)
	for i, r := 0, rng.New(in.seed); i < len(z); i++ {
		z[i] = r.Normal()
	}
	var out []float64
	scoresNs := 1e9 / elems * medianOf(9, func() {
		for i := range ublocks {
			out = ublocks[i].Scores(z, out)
		}
	})
	m["stats.ublock_scores_ns_per_elem"] = scoresNs
	m["stats.ublock_scores_gb_per_s"] = 8 / scoresNs // 8 bytes of U read per element

	// A job that only reads cached blocks, on one worker.
	one, err := newContext(in.seed, ctxOptions{workers: 1})
	if err != nil {
		return err
	}
	cached := rdd.Parallelize(one, ublocks, len(ublocks)).SetSizeFunc(stats.UBlock.ApproxBytes).Cache()
	count := func() {
		if _, cerr := rdd.Count(cached); cerr != nil {
			err = cerr
		}
	}
	count()
	m["rdd.cache_read_job_ms"] = 1000 * medianOf(31, count)
	if err != nil {
		return err
	}

	// The pipeline's entry points, one call at a time on the program's
	// default context.
	ctx, err := newContext(in.seed, ctxOptions{})
	if err != nil {
		return err
	}
	if err := in.stage(ctx); err != nil {
		return err
	}
	a, err := core.NewAnalysis(ctx, corePaths(), coreOptions(in.seed))
	if err != nil {
		return err
	}
	m["core.warm_s"] = timed(func() { err = a.Warm() })
	if err != nil {
		return err
	}
	m["core.observed_s"] = timed(func() { _, err = a.Observed() })
	if err != nil {
		return err
	}
	const replicates = 31
	jobs0 := len(ctx.Jobs())
	ms := make([]float64, replicates)
	for b := range ms {
		ms[b] = 1000 * timed(func() { _, err = a.Replicate(uint64(b + 1)) })
		if err != nil {
			return err
		}
	}
	m["core.replicate_ms_p50"] = median(ms)
	m["core.jobs_per_replicate"] = float64(len(ctx.Jobs())-jobs0) / replicates

	// What the replays leave unexplained of the tasks' measured compute is
	// the pipeline's own: closures, boxing of scores into pairs, set lookup.
	explained := float64(work.scans)*in.genotypes()*(m["data.parse_pack_ns_per_genotype"]+m["stats.contrib_ns_per_genotype"]) +
		float64(work.scorePasses)*in.genotypes()*scoresNs
	m["core.self_cpu_s"] = work.taskCompute - explained/1e9
	fmt.Fprintf(e.log, "\ntask compute %.3f s = replayed data+stats layers %.3f s + core.self_cpu_s %.3f s\n",
		work.taskCompute, explained/1e9, m["core.self_cpu_s"])

	// The plain single-threaded implementation of the same problem.
	ds, err := in.dataset()
	if err != nil {
		return err
	}
	const mcIters, permIters = 16, 4
	m["core.reference_mc_iters_per_s"] = mcIters / timed(func() {
		_, err = core.ReferenceMonteCarlo(ds, coreOptions(in.seed), mcIters)
	})
	if err != nil {
		return err
	}
	m["core.reference_perm_iters_per_s"] = permIters / timed(func() {
		_, err = core.ReferencePermutation(ds, coreOptions(in.seed), permIters)
	})
	return err
}

// assocWork is what one traced eqtl_wide pass measured, for the attribution.
type assocWork struct {
	tested      int64
	taskCompute float64 // seconds of measured task compute
	driverGap   float64 // seconds of pass wall outside any job
	opsPerSec   float64 // untraced end-to-end rate
	workers     int
}

// assocSuite replays the all-pairs pipeline's layers — phenotype-matrix
// parse, wide kernel, p-value — and attributes a traced pass's task compute
// to them: ROADMAP's "attribute the gap" between end-to-end throughput and the
// kernel's ceiling.
func assocSuite(e suiteEnv, blocks []data.GenoBlock, work assocWork) error {
	m, in := e.m, e.in
	var expr *data.PhenoMatrix
	var err error
	m["data.phenomatrix_read_s"] = medianOf(3, func() {
		expr, err = data.ReadPhenoMatrix(bytes.NewReader(in.expr))
	})
	if err != nil {
		return err
	}
	models := make([]stats.Model, expr.Rows())
	for r := range models {
		if models[r], err = stats.NewModel("gaussian", expr.Phenotype(r)); err != nil {
			return err
		}
	}
	kernel, err := stats.NewWideKernel(models)
	if err != nil {
		return err
	}

	n := min(len(blocks), max(1, widePairsTarget/(blockRows*len(models))))
	pairs := 0.0
	for i := range blocks[:n] {
		pairs += float64(blocks[i].Rows() * len(models))
	}
	var sink float64
	kernelSec := medianOf(3, func() {
		for _, blk := range blocks[:n] {
			kernel.BlockStats(blk, func(_ int32, _ int, score, _ float64) { sink += score })
		}
	})
	patients := float64(in.shape.Patients)
	m["stats.wide_kernel_pairs_per_s"] = pairs / kernelSec
	m["stats.wide_kernel_ns_per_patient_pair"] = kernelSec * 1e9 / (pairs * patients)
	m["stats.wide_kernel_gflops"] = 2 * patients * pairs / kernelSec / 1e9 // one multiply-add per patient per pair

	var scores, variances []float64
	kernel.BlockStats(blocks[0], func(_ int32, _ int, score, variance float64) {
		scores, variances = append(scores, score), append(variances, variance)
	})
	pvalueNs := 1e9 / float64(len(scores)) * medianOf(5, func() {
		for i, s := range scores {
			sink += stats.ChiSquaredSurvival(stats.Chi2Stat(s, variances[i]), 1)
		}
	})
	m["stats.pvalue_ns_per_call"] = pvalueNs
	if sink != sink {
		return fmt.Errorf("wide-kernel replay produced NaN")
	}

	tested := float64(work.tested)
	parse := in.genotypes() * m["data.parse_pack_ns_per_genotype"] / 1e9
	kern := tested / m["stats.wide_kernel_pairs_per_s"]
	pval := tested * pvalueNs / 1e9
	self := work.taskCompute - parse - kern - pval
	m["assoc.pairs_tested"] = tested
	m["assoc.task_compute_s"] = work.taskCompute
	m["assoc.self_cpu_s"] = self
	m["assoc.self_share"] = self / work.taskCompute
	m["assoc.driver_gap_ms"] = work.driverGap * 1000
	m["assoc.kernel_ceiling_ratio"] = work.opsPerSec / (float64(work.workers) * m["stats.wide_kernel_pairs_per_s"])

	share := func(sec float64) float64 { return 100 * sec / work.taskCompute }
	fmt.Fprintf(e.log, "\nwhere eqtl_wide's %.3f s of task compute goes (replayed single-threaded, scaled to %d pairs):\n", work.taskCompute, work.tested)
	fmt.Fprintf(e.log, "  data  parse+pack            %8.3f s  %5.1f %%\n", parse, share(parse))
	fmt.Fprintf(e.log, "  stats wide kernel           %8.3f s  %5.1f %%\n", kern, share(kern))
	fmt.Fprintf(e.log, "  stats p-value               %8.3f s  %5.1f %%\n", pval, share(pval))
	fmt.Fprintf(e.log, "  assoc self (accumulator, top-K, histogram, model build) %8.3f s  %5.1f %%\n", self, share(self))
	fmt.Fprintf(e.log, "  accounted for: 100 %% by construction; replays alone explain %.1f %%\n", share(parse+kern+pval))
	fmt.Fprintf(e.log, "  assoc.kernel_ceiling_ratio = %.3f (end-to-end pairs/s over %d workers x kernel pairs/s; ROADMAP wants >= 0.5)\n",
		m["assoc.kernel_ceiling_ratio"], work.workers)
	return nil
}
