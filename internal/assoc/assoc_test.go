package assoc

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"sparkscore/internal/cluster"
	"sparkscore/internal/core"
	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/rdd"
	"sparkscore/internal/replaytest"
	"sparkscore/internal/rng"
	"sparkscore/internal/stats"
)

// newTestContext builds a context whose genotype file splits into blocks of
// blockSize bytes — one partition, and so one partial, each (0 = the dfs
// default, which holds any fixture here in one block).
func newTestContext(t testing.TB, nodes, blockSize int, faults rdd.FaultProfile) *rdd.Context {
	t.Helper()
	c, err := rdd.New(rdd.Config{
		Cluster:      cluster.Config{Nodes: nodes, Spec: cluster.M3TwoXLarge},
		DFSBlockSize: blockSize,
		Seed:         7,
		Faults:       faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// stagedPaths names the two input files of a staged fixture.
type stagedPaths struct{ Genotypes, Phenotypes string }

// stage writes the genotype text under prefix through the DFS's Create, as
// core.StageDataset writes a dataset's, and the phenotype matrix beside it
// through StagePhenotypes.
func stage(t testing.TB, ctx *rdd.Context, geno *data.GenotypeMatrix, expr *data.PhenoMatrix, prefix string) stagedPaths {
	t.Helper()
	paths := stagedPaths{Genotypes: prefix + "/genotypes.txt", Phenotypes: prefix + "/phenomatrix.txt"}
	w := ctx.FS().Create(paths.Genotypes)
	if err := data.WriteGenotypes(w, geno); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := StagePhenotypes(ctx, paths.Phenotypes, expr); err != nil {
		t.Fatal(err)
	}
	return paths
}

// stageFixture generates and stages a small all-pairs dataset, returning the
// boxed genotype matrix and phenotype matrix for brute-force checks.
func stageFixture(t testing.TB, ctx *rdd.Context, patients, snps, phenos int) (stagedPaths, *data.GenotypeMatrix, *data.PhenoMatrix) {
	cfg := gen.Config{Patients: patients, SNPs: snps, SNPSets: 1}
	geno := gen.Genotypes(cfg, rng.New(5))
	expr := gen.ExpressionMatrix(cfg, rng.New(6), phenos)
	paths := stage(t, ctx, geno, expr, "eqtl")
	return paths, geno, expr
}

// bruteForce scores every pair in memory one phenotype at a time — the
// reference the engine is pinned against: the score is stats.PackedRowScores
// on the phenotype's residuals, the bits every marginal analysis reports, and
// the variance Model.Variance on the row. stats.Score on the row, which adds in
// patient order, is a second check within 1e-12 of the terms' absolute sum.
func bruteForce(t testing.TB, geno *data.GenotypeMatrix, expr *data.PhenoMatrix, family string) []PairResult {
	blk := data.NewGenoBlock(geno.Patients, len(geno.Rows))
	for j, row := range geno.Rows {
		if err := blk.AppendRow(j, row); err != nil {
			t.Fatal(err)
		}
	}
	var out []PairResult
	for p := 0; p < expr.Rows(); p++ {
		m, err := stats.NewModel(family, expr.Phenotype(p))
		if err != nil {
			t.Fatal(err)
		}
		scores := stats.PackedRowScores(blk, m.ScoreResiduals(), nil)
		for j, row := range geno.Rows {
			var terms float64
			for i, r := range m.ScoreResiduals() {
				terms += math.Abs(float64(row[i]) * r)
			}
			if loop := stats.Score(m, row); math.Abs(scores[j]-loop) > 1e-12*terms {
				t.Fatalf("SNP %d phenotype %d: PackedRowScores %v, patient-order Score %v", j, expr.IDs[p], scores[j], loop)
			}
			out = append(out, pairResult(int32(j), expr.IDs[p], scores[j], m.Variance(row)))
		}
	}
	return out
}

// TestCrossScoresAreMarginalScores pins the all-pairs cross to the marginal
// analysis it repeats once per phenotype: with TopK covering every pair, each
// pair's score, variance and p-value must equal, under math.Float64bits,
// core.MarginalAsymptotic's result for that SNP with the expression row as
// the analysis's phenotype — Gaussian and Binomial, the genotype file cut
// into several partitions.
func TestCrossScoresAreMarginalScores(t *testing.T) {
	const patients, snps = 45, 150
	cfg := gen.Config{Patients: patients, SNPs: snps, SNPSets: 1}
	geno := gen.Genotypes(cfg, rng.New(21))
	everySNP := data.SNPSet{Name: "all", SNPs: make([]int, snps)}
	weights := make(data.Weights, snps)
	for j := range snps {
		everySNP.SNPs[j], weights[j] = j, 1
	}
	for _, fx := range []struct {
		family string
		expr   *data.PhenoMatrix
	}{
		{"gaussian", gen.ExpressionMatrix(cfg, rng.New(22), 5)},
		{"binomial", binaryPhenos(t, rng.New(23), patients, 3)},
	} {
		ctx := newTestContext(t, 2, 2<<10, rdd.FaultProfile{})
		paths := stage(t, ctx, geno, fx.expr, "eqtl")
		pairs := snps * fx.expr.Rows()
		a, err := NewAnalysis(ctx, paths.Genotypes, paths.Phenotypes, Config{Family: fx.family, TopK: pairs})
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.TopK) != pairs || res.SNPBlocks < 3 {
			t.Fatalf("%s: %d of %d pairs kept over %d partitions, want all over several", fx.family, len(res.TopK), pairs, res.SNPBlocks)
		}
		cross := make(map[[2]int32]PairResult, pairs)
		for _, pr := range res.TopK {
			cross[[2]int32{pr.SNP, pr.Pheno}] = pr
		}
		for p := 0; p < fx.expr.Rows(); p++ {
			ds := &data.Dataset{Genotypes: geno, Phenotype: fx.expr.Phenotype(p), Weights: weights, SNPSets: data.SNPSets{everySNP}}
			mpaths, err := core.StageDataset(ctx, ds, fmt.Sprintf("marginal%d", p))
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.NewAnalysis(ctx, mpaths, core.Options{Family: fx.family})
			if err != nil {
				t.Fatal(err)
			}
			marginal, err := m.MarginalAsymptotic()
			if err != nil {
				t.Fatal(err)
			}
			if len(marginal) != snps {
				t.Fatalf("%s phenotype %d: %d marginal results, want %d", fx.family, p, len(marginal), snps)
			}
			for _, want := range marginal {
				got, ok := cross[[2]int32{int32(want.SNP), fx.expr.IDs[p]}]
				if !ok || math.Float64bits(got.Score) != math.Float64bits(want.Score) ||
					math.Float64bits(got.Variance) != math.Float64bits(want.Variance) ||
					math.Float64bits(got.PValue) != math.Float64bits(want.PValue) {
					t.Fatalf("%s SNP %d phenotype %d: cross %+v (found %v), marginal %+v", fx.family, want.SNP, p, got, ok, want)
				}
			}
		}
	}
}

func TestAllPairsMatchesBruteForce(t *testing.T) {
	const patients, snps, phenos, k = 40, 600, 9, 25
	ctx := newTestContext(t, 2, 0, rdd.FaultProfile{})
	paths, geno, expr := stageFixture(t, ctx, patients, snps, phenos)
	a, err := NewAnalysis(ctx, paths.Genotypes, paths.Phenotypes, Config{TopK: k, HistBins: 512})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tested != int64(snps*phenos) {
		t.Fatalf("tested %d pairs, want %d", res.Tested, snps*phenos)
	}

	all := bruteForce(t, geno, expr, "gaussian")
	sort.Slice(all, func(i, j int) bool { return pairLess(all[i], all[j]) })
	if len(res.TopK) != k {
		t.Fatalf("top-K has %d entries, want %d", len(res.TopK), k)
	}
	for i := 0; i < k; i++ {
		g, w := res.TopK[i], all[i]
		if g.SNP != w.SNP || g.Pheno != w.Pheno ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.Variance) != math.Float64bits(w.Variance) ||
			math.Float64bits(g.PValue) != math.Float64bits(w.PValue) {
			t.Fatalf("top-K entry %d = %+v, brute force %+v", i, g, w)
		}
	}

	// The FDR summary must equal exact BH on bin-snapped p-values.
	snapped := make([]float64, len(all))
	for i, p := range all {
		snapped[i] = snap(p.PValue, 512)
	}
	wantThr, wantDisc := exactBH(snapped, 0.05)
	if math.Float64bits(res.FDR.Threshold) != math.Float64bits(wantThr) || res.FDR.Discoveries != wantDisc {
		t.Fatalf("FDR = %+v, exact-on-snapped (%v, %d)", res.FDR, wantThr, wantDisc)
	}
}

// TestStrategiesAndKernelsAgree pins the report to the pairs and not to how
// the genotype side was cut up: one partition and a dozen (as many partials
// merged at the driver) give byte-identical reports, and the wide kernel's
// top-K is the brute-force reference's, computed one phenotype at a time.
func TestStrategiesAndKernelsAgree(t *testing.T) {
	const patients, snps, phenos, k = 30, 700, 12, 20
	var all []PairResult
	report := func(blockSize, minBlocks int) []byte {
		ctx := newTestContext(t, 2, blockSize, rdd.FaultProfile{})
		paths, geno, expr := stageFixture(t, ctx, patients, snps, phenos)
		a, err := NewAnalysis(ctx, paths.Genotypes, paths.Phenotypes, Config{TopK: k, HistBins: 256})
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.SNPBlocks < minBlocks {
			t.Fatalf("block size %d gave %d genotype partitions, want at least %d", blockSize, res.SNPBlocks, minBlocks)
		}
		if all == nil {
			all = bruteForce(t, geno, expr, "gaussian")
			sort.Slice(all, func(i, j int) bool { return pairLess(all[i], all[j]) })
		}
		for i, got := range res.TopK {
			if got != all[i] {
				t.Fatalf("block size %d: top-K entry %d = %+v, brute force %+v", blockSize, i, got, all[i])
			}
		}
		var buf bytes.Buffer
		if err := WriteReport(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := report(0, 1)
	if got := report(4<<10, 8); !bytes.Equal(got, base) {
		t.Fatalf("report over many partitions differs from the one-partition report:\n%s\n--- vs ---\n%s", got, base)
	}
}

// TestAllPairsUnderChaos runs the cross under task crashes, stragglers and a
// node lost mid-job, over enough partitions that attempts really are retried:
// the report must be byte-identical to the clean run, and the chaos run's
// report, job fingerprints and event log must replay byte for byte whatever
// the host parallelism.
func TestAllPairsUnderChaos(t *testing.T) {
	run := func(faults rdd.FaultProfile, workers int) (replaytest.Observation, rdd.RecoveryStats) {
		var log bytes.Buffer
		elw := rdd.NewEventLogWriter(&log)
		ctx, err := rdd.New(rdd.Config{
			Cluster:      cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
			DFSBlockSize: 4 << 10,
			Seed:         7,
			Faults:       faults,
			Workers:      workers,
			Listeners:    []rdd.Listener{elw},
		})
		if err != nil {
			t.Fatal(err)
		}
		paths, _, _ := stageFixture(t, ctx, 25, 900, 6)
		a, err := NewAnalysis(ctx, paths.Genotypes, paths.Phenotypes, Config{TopK: 15, HistBins: 128})
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.SNPBlocks < 8 {
			t.Fatalf("%d genotype partitions, want at least 8 for the node loss to land mid-job", res.SNPBlocks)
		}
		var report, fp strings.Builder
		if err := WriteReport(&report, res); err != nil {
			t.Fatal(err)
		}
		if err := elw.Close(); err != nil {
			t.Fatal(err)
		}
		for _, m := range ctx.Jobs() {
			fmt.Fprintf(&fp, "%+v\n", m)
		}
		obs := replaytest.Observation{Result: report.String(), Fingerprint: fp.String(), Log: log.String()}
		return obs, rdd.SummarizeRecovery(ctx.Jobs())
	}
	clean, _ := run(rdd.FaultProfile{}, 0)
	var recovery rdd.RecoveryStats
	chaos := replaytest.AcrossWorkers(t, func(workers int) replaytest.Observation {
		obs, rec := run(rdd.FaultProfile{
			TaskCrashProb: 0.4, StragglerProb: 0.1,
			NodeLoss: []rdd.NodeLoss{{Node: 0, AfterTasks: 3}},
		}, workers)
		recovery = rec
		return obs
	})
	if chaos.Result != clean.Result {
		t.Fatalf("chaos changed the report:\n%s\n--- vs clean ---\n%s", chaos.Result, clean.Result)
	}
	if recovery.TaskRetries == 0 {
		t.Fatal("the chaos profile retried no task: the recovery claim is vacuous")
	}
}

// TestAutoStrategyPicksBroadcastForSmallMatrix pins the word bench/batch.go
// checks before it times eqtl_wide.
func TestAutoStrategyPicksBroadcastForSmallMatrix(t *testing.T) {
	ctx := newTestContext(t, 1, 0, rdd.FaultProfile{})
	paths, _, _ := stageFixture(t, ctx, 10, 20, 3)
	a, err := NewAnalysis(ctx, paths.Genotypes, paths.Phenotypes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Strategy(); got != "broadcast" {
		t.Fatalf("Strategy() = %q, want broadcast", got)
	}
}

func TestNewAnalysisRejects(t *testing.T) {
	ctx := newTestContext(t, 1, 0, rdd.FaultProfile{})
	paths, _, _ := stageFixture(t, ctx, 10, 20, 3)
	if _, err := NewAnalysis(ctx, paths.Genotypes, paths.Phenotypes, Config{Family: "cox"}); err == nil {
		t.Fatal("accepted the cox family")
	}
	// Expression values are continuous, so binomial must fail fast.
	if _, err := NewAnalysis(ctx, paths.Genotypes, paths.Phenotypes, Config{Family: "binomial"}); err == nil {
		t.Fatal("accepted binomial for continuous phenotypes")
	}
	if _, err := NewAnalysis(ctx, "missing.txt", paths.Phenotypes, Config{}); err == nil {
		t.Fatal("accepted a missing genotype file")
	}
}

// TestBinomialFamilyAllPairs runs the PheWAS shape: binary phenotypes under
// the binomial score, pinned against brute force.
func TestBinomialFamilyAllPairs(t *testing.T) {
	const patients, snps, phenos = 30, 300, 4
	ctx := newTestContext(t, 2, 0, rdd.FaultProfile{})
	cfg := gen.Config{Patients: patients, SNPs: snps, SNPSets: 1}
	geno := gen.Genotypes(cfg, rng.New(9))
	r := rng.New(10)
	expr := data.NewPhenoMatrix(patients, phenos)
	row := make([]float64, patients)
	for p := 0; p < phenos; p++ {
		for i := range row {
			row[i] = 0
			if r.Bernoulli(0.4) {
				row[i] = 1
			}
		}
		if err := expr.AppendRow(p, row); err != nil {
			t.Fatal(err)
		}
	}
	paths := stage(t, ctx, geno, &expr, "phewas")
	a, err := NewAnalysis(ctx, paths.Genotypes, paths.Phenotypes, Config{Family: "binomial", TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	all := bruteForce(t, geno, &expr, "binomial")
	sort.Slice(all, func(i, j int) bool { return pairLess(all[i], all[j]) })
	for i := range res.TopK {
		if res.TopK[i] != all[i] {
			t.Fatalf("top-K entry %d = %+v, brute force %+v", i, res.TopK[i], all[i])
		}
	}
}

// runWithBadLine stages a genotype file of sixty good rows with bad spliced
// into the middle, cut into enough blocks that the good partitions finish
// around the one that keeps failing, and returns Run's error.
func runWithBadLine(t *testing.T, bad string) error {
	t.Helper()
	ctx := newTestContext(t, 2, 64, rdd.FaultProfile{})
	paths, _, _ := stageFixture(t, ctx, 3, 4, 2)
	var text strings.Builder
	for snp := 0; snp < 60; snp++ {
		if snp == 30 {
			text.WriteString(bad)
		}
		fmt.Fprintf(&text, "%d\t0 1 2\n", snp)
	}
	f, err := ctx.FS().Write(paths.Genotypes, []byte(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) < 8 {
		t.Fatalf("genotype file staged as %d blocks, want at least 8", len(f.Blocks))
	}
	a, err := NewAnalysis(ctx, paths.Genotypes, paths.Phenotypes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.Run()
	var aborted *rdd.TaskAbortedError
	if !errors.As(err, &aborted) || aborted.Attempts < 2 {
		t.Fatalf("Run() = %v, want a task abort after retries", err)
	}
	return err
}

// TestMalformedGenotypeLineFailsTheJob checks the all-pairs ingest surfaces a
// bad line as a task failure naming the SNP and field, not a bare panic.
func TestMalformedGenotypeLineFailsTheJob(t *testing.T) {
	err := runWithBadLine(t, "77\t0 x 2\n")
	if want := `SNP 77: field 2: bad genotype "x"`; !strings.Contains(err.Error(), want) {
		t.Fatalf("Run() = %v, want a task abort containing %q", err, want)
	}
}

// TestSNPIDBeyondInt32FailsTheJob: the all-pairs ingest has no membership
// filter, so an id that wrapped into the block's int32 column would report
// its pairs under another SNP (4294967301 as SNP 5). The job must fail naming
// the line's id instead.
func TestSNPIDBeyondInt32FailsTheJob(t *testing.T) {
	err := runWithBadLine(t, "4294967301\t0 1 2\n")
	if want := "SNP id 4294967301"; !strings.Contains(err.Error(), want) {
		t.Fatalf("Run() = %v, want a task abort containing %q", err, want)
	}
}

// TestOverflowingPhenotypeFailsTheRun stages a phenotype whose values are
// finite (so the text codec accepts them) but whose sum overflows: its
// residuals are infinite, the kernel refuses to build, and Run must report
// that rather than histogram NaN p-values into the most significant bin.
func TestOverflowingPhenotypeFailsTheRun(t *testing.T) {
	const patients = 6
	ctx := newTestContext(t, 1, 0, rdd.FaultProfile{})
	_, geno, _ := stageFixture(t, ctx, patients, 10, 1)
	expr := data.NewPhenoMatrix(patients, 3)
	for p, scale := range []float64{1, 2, 1e308} {
		row := make([]float64, patients)
		for i := range row {
			row[i] = scale * (1 - 0.1*float64(i%2))
		}
		if err := expr.AppendRow(p, row); err != nil {
			t.Fatal(err)
		}
	}
	paths := stage(t, ctx, geno, &expr, "overflow")
	a, err := NewAnalysis(ctx, paths.Genotypes, paths.Phenotypes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.Run()
	if want := "stats: wide kernel phenotype"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run() = %v, want a kernel rejection containing %q", err, want)
	}
}

// TestScoreSquareOverflowFailsTheRun: a phenotype at 1e155 × (1, 0.9, ...)
// has finite residuals and a finite variance scale, but a pair's score² can
// overflow to +Inf and report p = 0 for a χ² that does not depend on scale.
// The kernel must refuse it by name; at 1e150 the bounds hold and every
// p-value is the scale-1 phenotype's.
func TestScoreSquareOverflowFailsTheRun(t *testing.T) {
	const patients, snps = 6, 10
	run := func(scale float64) (*Result, error) {
		ctx := newTestContext(t, 1, 0, rdd.FaultProfile{})
		_, geno, _ := stageFixture(t, ctx, patients, snps, 1)
		expr := data.NewPhenoMatrix(patients, 2)
		for p, s := range []float64{1, scale} {
			row := make([]float64, patients)
			for i := range row {
				row[i] = s * (1 - 0.1*float64(i%2))
			}
			if err := expr.AppendRow(p, row); err != nil {
				t.Fatal(err)
			}
		}
		paths := stage(t, ctx, geno, &expr, "overflow")
		a, err := NewAnalysis(ctx, paths.Genotypes, paths.Phenotypes, Config{TopK: 2 * snps})
		if err != nil {
			t.Fatal(err)
		}
		return a.Run()
	}
	if _, err := run(1e155); err == nil || !strings.Contains(err.Error(), "stats: wide kernel phenotype 1 ") {
		t.Fatalf("scale 1e155: Run() = %v, want a kernel rejection naming phenotype 1", err)
	}
	res, err := run(1e150)
	if err != nil {
		t.Fatalf("scale 1e150: %v", err)
	}
	pv := map[[2]int32]float64{}
	for _, p := range res.TopK {
		pv[[2]int32{p.SNP, p.Pheno}] = p.PValue
	}
	if len(pv) != 2*snps {
		t.Fatalf("top-K holds %d pairs, want all %d", len(pv), 2*snps)
	}
	for snp := int32(0); snp < snps; snp++ {
		one, big := pv[[2]int32{snp, 0}], pv[[2]int32{snp, 1}]
		if math.Abs(big-one) > 1e-12*math.Abs(one) {
			t.Fatalf("SNP %d: p = %v at scale 1e150, %v at scale 1", snp, big, one)
		}
	}
}

// cutoffFixture is one input of the cut-off grid.
type cutoffFixture struct {
	name, family string
	geno         *data.GenotypeMatrix
	expr         *data.PhenoMatrix
	many         int // a DFS block size that cuts the genotype file into several partitions
}

// binaryPhenos draws phenos 0/1 phenotypes, each with both classes.
func binaryPhenos(t *testing.T, r *rng.RNG, patients, phenos int) *data.PhenoMatrix {
	expr := data.NewPhenoMatrix(patients, phenos)
	row := make([]float64, patients)
	for p := 0; p < phenos; p++ {
		for i := range row {
			row[i] = 0
			if r.Bernoulli(0.4) || i == 0 {
				row[i] = 1
			}
		}
		row[1] = 0
		if err := expr.AppendRow(p, row); err != nil {
			t.Fatal(err)
		}
	}
	return &expr
}

// cutoffFixtures: an expression cross, a binary one, one where more pairs
// than any K below underflow to p = 0 (phenotypes equal to the dosages of ten
// SNPs over 2 000 patients, χ² ≈ n), and one whose every third row is
// monomorphic (variance 0, p = 1).
func cutoffFixtures(t *testing.T) []cutoffFixture {
	small := gen.Config{Patients: 40, SNPs: 300, SNPSets: 1}
	expression := cutoffFixture{name: "expression", family: "gaussian", many: 2 << 10,
		geno: gen.Genotypes(small, rng.New(5)), expr: gen.ExpressionMatrix(small, rng.New(6), 6)}
	binary := cutoffFixture{name: "binary", family: "binomial", many: 2 << 10,
		geno: gen.Genotypes(small, rng.New(9)), expr: binaryPhenos(t, rng.New(10), 40, 4)}

	wide := gen.Config{Patients: 2000, SNPs: 30, SNPSets: 1}
	underflow := cutoffFixture{name: "underflow", family: "gaussian", many: 16 << 10, geno: gen.Genotypes(wide, rng.New(11))}
	dosages := data.NewPhenoMatrix(wide.Patients, 10)
	row := make([]float64, wide.Patients)
	for p := 0; p < 10; p++ {
		for i, g := range underflow.geno.Rows[p] {
			row[i] = 0
			if g != data.MissingGenotype {
				row[i] = float64(g)
			}
		}
		if err := dosages.AppendRow(p, row); err != nil {
			t.Fatal(err)
		}
	}
	underflow.expr = &dosages

	mono := cutoffFixture{name: "monomorphic", family: "binomial", many: 2 << 10,
		geno: gen.Genotypes(gen.Config{Patients: 40, SNPs: 200, SNPSets: 1}, rng.New(12)), expr: binaryPhenos(t, rng.New(13), 40, 5)}
	for j := 0; j < len(mono.geno.Rows); j += 3 {
		for i := range mono.geno.Rows[j] {
			mono.geno.Rows[j][i] = data.Genotype(j / 3 % 3)
		}
	}
	return []cutoffFixture{expression, binary, underflow, mono}
}

// TestCutoffMatchesBruteForce runs the cross over a grid — K of 1, 7 and more
// than a partition's pairs; 1, 20 (where α·W is exactly 1), 512 and 4096 bins;
// one partition and several; Gaussian and binomial — on every cut-off fixture,
// and requires the brute-force top-K bit for bit, every pair tested, and the
// FDR summary of exact BH on the bin-snapped p-values.
func TestCutoffMatchesBruteForce(t *testing.T) {
	for _, fx := range cutoffFixtures(t) {
		all := bruteForce(t, fx.geno, fx.expr, fx.family)
		sort.Slice(all, func(i, j int) bool { return pairLess(all[i], all[j]) })
		if fx.name == "underflow" {
			zeros := 0
			for _, p := range all {
				if p.PValue == 0 {
					zeros++
				}
			}
			if zeros <= 7 {
				t.Fatalf("underflow fixture has %d pairs at p = 0, want more than 7", zeros)
			}
		}
		for _, blockSize := range []int{0, fx.many} {
			ctx := newTestContext(t, 2, blockSize, rdd.FaultProfile{})
			paths := stage(t, ctx, fx.geno, fx.expr, fx.name)
			for _, k := range []int{1, 7, len(all) + 1} {
				for _, bins := range []int{1, 20, 512, 4096} {
					where := fmt.Sprintf("%s block=%d k=%d bins=%d", fx.name, blockSize, k, bins)
					a, err := NewAnalysis(ctx, paths.Genotypes, paths.Phenotypes, Config{Family: fx.family, TopK: k, HistBins: bins})
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					res, err := a.Run()
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if blockSize != 0 && res.SNPBlocks < 3 {
						t.Fatalf("%s: %d genotype partitions, want several", where, res.SNPBlocks)
					}
					if res.Tested != int64(len(all)) {
						t.Fatalf("%s: tested %d pairs, want %d", where, res.Tested, len(all))
					}
					want := all[:min(k, len(all))]
					if len(res.TopK) != len(want) {
						t.Fatalf("%s: top-K has %d entries, want %d", where, len(res.TopK), len(want))
					}
					for i, g := range res.TopK {
						w := want[i]
						if g.SNP != w.SNP || g.Pheno != w.Pheno ||
							math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
							math.Float64bits(g.Variance) != math.Float64bits(w.Variance) ||
							math.Float64bits(g.PValue) != math.Float64bits(w.PValue) {
							t.Fatalf("%s: top-K entry %d = %+v, brute force %+v", where, i, g, w)
						}
					}
					snapped := make([]float64, len(all))
					for i, p := range all {
						snapped[i] = snap(p.PValue, bins)
					}
					thr, disc := exactBH(snapped, fdrAlpha)
					if math.Float64bits(res.FDR.Threshold) != math.Float64bits(thr) || res.FDR.Discoveries != disc {
						t.Fatalf("%s: FDR = %+v, exact-on-snapped (%v, %d)", where, res.FDR, thr, disc)
					}
				}
			}
		}
	}
}

// foldSink keeps BenchmarkFold's result live.
var foldSink *accumulator

// BenchmarkFold times one eqtl_wide task's fold in process: the wide kernel's
// rows through the cut-off accumulator — four blocks of 256 SNPs × 1 000
// patients against 256 phenotypes, a fresh accumulator per iteration as each
// partition builds one (eqtl_wide runs about twenty such tasks). Mpairs/s
// reads beside stats' BenchmarkWideKernel/eqtl_wide, the kernel alone.
func BenchmarkFold(b *testing.B) {
	b.Run("eqtl_wide", func(b *testing.B) {
		const patients, snps, phenos = 1000, 1024, 256
		cfg := gen.Config{Patients: patients, SNPs: snps, SNPSets: 1}
		blocks := gen.GenoBlocks(cfg, rng.New(1), data.GenoBlockRows)
		expr := gen.ExpressionMatrix(cfg, rng.New(2), phenos)
		kernel, err := newKernel("gaussian", expr)
		if err != nil {
			b.Fatal(err)
		}
		edge := newBHEdge(Config{}.histBins(), fdrAlpha)
		fold := func() *accumulator {
			acc := newAccumulator(Config{}.topK(), edge)
			row := func(snp int32, scores, variances []float64) { acc.addRow(snp, expr.IDs, scores, variances) }
			for _, blk := range blocks {
				kernel.BlockRows(blk, row)
			}
			return acc
		}
		acc := fold() // fills the kernel's scratch pool
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			foldSink = fold()
		}
		b.ReportMetric(float64(b.N)*float64(snps*phenos)/b.Elapsed().Seconds()/1e6, "Mpairs/s")
		b.ReportMetric(float64(acc.scored)/float64(acc.tested), "scored/pair")
	})
}

// TestDFSBytesHandsOverExactBuffers: the DFS keeps the slice StagePhenotypes
// hands it for as long as the file lives, so the phenotype text (its buffer
// grown by doubling) must end where the text ends (cap == len of its last
// block, which ends where the handed slice ends) and hold WritePhenoMatrix's
// bytes — at one phenotype, and at enough to span several blocks.
func TestDFSBytesHandsOverExactBuffers(t *testing.T) {
	for _, phenos := range []int{1, 40, 300} {
		ctx := newTestContext(t, 3, 64<<10, rdd.FaultProfile{})
		expr := gen.ExpressionMatrix(gen.Config{Patients: 100}, rng.New(uint64(phenos)), phenos)
		const path = "eqtl/phenomatrix.txt"
		if err := StagePhenotypes(ctx, path, expr); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := data.WritePhenoMatrix(&want, expr); err != nil {
			t.Fatal(err)
		}
		f, err := ctx.FS().Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if last := f.Blocks[len(f.Blocks)-1].Data; cap(last) != len(last) {
			t.Errorf("%d phenotypes: the last of %d blocks has len %d, cap %d", phenos, len(f.Blocks), len(last), cap(last))
		}
		if got, err := ctx.FS().ReadAll(path); err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%d phenotypes: staged %d bytes (err %v), WritePhenoMatrix wrote %d", phenos, len(got), err, want.Len())
		}
	}
}
