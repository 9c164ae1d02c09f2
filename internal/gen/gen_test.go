package gen

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"sparkscore/internal/rng"
)

func TestGenerateValidDataset(t *testing.T) {
	d, err := Generate(Config{Patients: 50, SNPs: 200, SNPSets: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("generated dataset invalid: %v", err)
	}
	if d.Genotypes.SNPs() != 200 || d.Genotypes.Patients != 50 {
		t.Fatalf("shape (%d,%d)", d.Genotypes.SNPs(), d.Genotypes.Patients)
	}
	if len(d.SNPSets) != 10 {
		t.Fatalf("%d sets, want 10", len(d.SNPSets))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Patients: 20, SNPs: 50, SNPSets: 5}, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Patients: 20, SNPs: 50, SNPSets: 5}, 42)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Genotypes.Rows {
		for i := range a.Genotypes.Rows[j] {
			if a.Genotypes.Rows[j][i] != b.Genotypes.Rows[j][i] {
				t.Fatalf("genotypes diverge at (%d,%d)", j, i)
			}
		}
	}
	for i := range a.Phenotype.Y {
		if a.Phenotype.Y[i] != b.Phenotype.Y[i] || a.Phenotype.Event[i] != b.Phenotype.Event[i] {
			t.Fatalf("phenotype diverges at %d", i)
		}
	}
	for k := range a.SNPSets {
		if len(a.SNPSets[k].SNPs) != len(b.SNPSets[k].SNPs) {
			t.Fatalf("set %d size diverges", k)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(Config{Patients: 100, SNPs: 10, SNPSets: 2}, 1)
	b, _ := Generate(Config{Patients: 100, SNPs: 10, SNPSets: 2}, 2)
	same := true
	for i := range a.Phenotype.Y {
		if a.Phenotype.Y[i] != b.Phenotype.Y[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical phenotypes")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Patients: 0, SNPs: 10, SNPSets: 1},
		{Patients: 10, SNPs: 0, SNPSets: 1},
		{Patients: 10, SNPs: 10, SNPSets: 0},
		{Patients: 10, SNPs: 5, SNPSets: 6},
		{Patients: 10, SNPs: 10, SNPSets: 2, MinMAF: 0.6, MaxMAF: 0.4},
		{Patients: 10, SNPs: 10, SNPSets: 2, EventRate: 1.5},
		{Patients: 10, SNPs: 10, SNPSets: 2, MeanSurvival: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	if err := (Config{Patients: 10, SNPs: 10, SNPSets: 2}).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestPhenotypeDistribution(t *testing.T) {
	cfg := Config{Patients: 100000, SNPs: 1, SNPSets: 1}
	p := Phenotype(cfg, rng.New(7))
	var sumY float64
	events := 0
	for i := range p.Y {
		if p.Y[i] < 0 {
			t.Fatalf("negative survival time %v", p.Y[i])
		}
		sumY += p.Y[i]
		if p.Event[i] == 1 {
			events++
		}
	}
	meanY := sumY / float64(len(p.Y))
	if math.Abs(meanY-12) > 0.3 {
		t.Errorf("mean survival %.3f, want ~12", meanY)
	}
	eventRate := float64(events) / float64(len(p.Y))
	if math.Abs(eventRate-0.85) > 0.01 {
		t.Errorf("event rate %.4f, want ~0.85", eventRate)
	}
}

func TestGenotypeFrequenciesWithinMAFRange(t *testing.T) {
	cfg := Config{Patients: 5000, SNPs: 20, SNPSets: 1, MinMAF: 0.2, MaxMAF: 0.3}
	m := Genotypes(cfg, rng.New(11))
	for j := 0; j < cfg.SNPs; j++ {
		sum := 0
		for _, g := range m.Rows[j] {
			sum += int(g)
		}
		// Empirical allele frequency = mean genotype / 2; must be near the
		// configured (0.2, 0.3) band, with sampling slack.
		freq := float64(sum) / float64(2*cfg.Patients)
		if freq < 0.15 || freq > 0.35 {
			t.Errorf("SNP %d empirical frequency %.3f outside sampled band", j, freq)
		}
	}
}

func TestGenotypeRowsOrderIndependent(t *testing.T) {
	cfg := Config{Patients: 10, SNPs: 5, SNPSets: 1}
	r := rng.New(13)
	full := Genotypes(cfg, r)
	// Regenerating row 3 alone must reproduce the same values.
	row := make([]int8, cfg.Patients)
	FillGenotypeRow(row, cfg, rng.New(13), 3)
	for i := range row {
		if row[i] != full.Rows[3][i] {
			t.Fatalf("row 3 regenerated differently at patient %d", i)
		}
	}
}

func TestSetsPartitionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := r.Intn(200) + 2
		k := r.Intn(m) + 1
		cfg := Config{Patients: 1, SNPs: m, SNPSets: k}
		sets := Sets(cfg, r)
		if len(sets) != k {
			return false
		}
		seen := make(map[int]bool)
		for _, s := range sets {
			if len(s.SNPs) == 0 {
				return false
			}
			for _, j := range s.SNPs {
				if j < 0 || j >= m {
					return false
				}
				seen[j] = true
			}
		}
		// Every SNP must be covered (the last set absorbs the remainder).
		return len(seen) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSetsMeanSizeTracksMOverK(t *testing.T) {
	cfg := Config{Patients: 1, SNPs: 10000, SNPSets: 100}
	sets := Sets(cfg, rng.New(17))
	total := 0
	for _, s := range sets {
		total += len(s.SNPs)
	}
	mean := float64(total) / float64(len(sets))
	// Mean set size should be ~ m/K = 100; exponential rounding biases it
	// slightly below and the remainder set pulls it around, so be generous.
	if mean < 50 || mean > 200 {
		t.Fatalf("mean set size %.1f, want near 100", mean)
	}
}

func TestFlatWeights(t *testing.T) {
	w := FlatWeights(5)
	if len(w) != 5 {
		t.Fatalf("len = %d", len(w))
	}
	for _, v := range w {
		if v != 1 {
			t.Fatalf("weight %v, want 1", v)
		}
	}
}

func TestCovariatesShapeAndBalance(t *testing.T) {
	cfg := Config{Patients: 4000, SNPs: 10, SNPSets: 2}
	cov := Covariates(cfg, rng.New(19))
	if cov.Patients() != 4000 || cov.Width() != 2 {
		t.Fatalf("shape (%d,%d)", cov.Patients(), cov.Width())
	}
	if err := cov.Validate(); err != nil {
		t.Fatal(err)
	}
	var sumAge, ones float64
	for _, row := range cov.Rows {
		sumAge += row[0]
		if row[1] != 0 && row[1] != 1 {
			t.Fatalf("sex indicator %v", row[1])
		}
		ones += row[1]
	}
	if math.Abs(sumAge/4000) > 0.08 {
		t.Fatalf("age mean %.3f, want ~0", sumAge/4000)
	}
	if frac := ones / 4000; math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("sex balance %.3f, want ~0.5", frac)
	}
}

func TestGenoBlocksDecodeToGenotypesMatrix(t *testing.T) {
	cfg := Config{Patients: 57, SNPs: 130, SNPSets: 5}
	matrix := Genotypes(cfg, rng.New(42))
	blocks := GenoBlocks(cfg, rng.New(42), 48)
	if len(blocks) != 3 {
		t.Fatalf("%d blocks for 130 SNPs at 48 rows/block, want 3", len(blocks))
	}
	j := 0
	var dec []int8
	for _, blk := range blocks {
		for r := 0; r < blk.Rows(); r++ {
			if int(blk.SNPs[r]) != j {
				t.Fatalf("block row carries SNP %d, want %d", blk.SNPs[r], j)
			}
			dec = blk.DecodeRow(r, dec)
			for i, v := range matrix.Row(j) {
				if dec[i] != v {
					t.Fatalf("SNP %d patient %d: packed %d, matrix %d", j, i, dec[i], v)
				}
			}
			j++
		}
	}
	if j != cfg.SNPs {
		t.Fatalf("blocks hold %d rows, want %d", j, cfg.SNPs)
	}
}

// TestConfigValidateRefusesNonFinite: a NaN or infinite generator parameter is
// refused naming the field — not a panic (an infinite mean survival), not a
// phenotype file the reader then refuses (a NaN one), not a silently
// degenerate dataset (a NaN event rate censors everyone, a NaN MAF bound
// makes every genotype 0).
func TestConfigValidateRefusesNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{MinMAF: nan, MaxMAF: 0.5}, "MinMAF"},
		{Config{MinMAF: -inf, MaxMAF: 0.5}, "MinMAF"},
		{Config{MinMAF: 0.01, MaxMAF: nan}, "MaxMAF"},
		{Config{EventRate: nan}, "EventRate"},
		{Config{EventRate: -inf}, "EventRate"},
		{Config{MeanSurvival: nan}, "MeanSurvival"},
		{Config{MeanSurvival: inf}, "MeanSurvival"},
	} {
		tc.cfg.Patients, tc.cfg.SNPs, tc.cfg.SNPSets = 10, 10, 2
		if err := tc.cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want one naming %s", tc.cfg, err, tc.want)
		}
	}
}

// genotypesOracle draws the matrix as the serial generator did: row after
// row, each genotype rng's Binomial(2, ρ_j) on the row's split stream.
func genotypesOracle(cfg Config, r *rng.RNG) [][]int8 {
	cfg = cfg.withDefaults()
	rows := make([][]int8, cfg.SNPs)
	for j := range rows {
		rr := r.Split(uint64(j))
		rho := cfg.MinMAF + rr.Float64()*(cfg.MaxMAF-cfg.MinMAF)
		rows[j] = make([]int8, cfg.Patients)
		for i := range rows[j] {
			rows[j][i] = int8(rr.Binomial(2, rho))
		}
	}
	return rows
}

// TestGenotypesParallelMatchesSerialOracle: the row-parallel, branch-free
// generator draws the serial Binomial generator's matrix under every
// GOMAXPROCS, on shapes with fewer rows than workers, an odd row count and a
// single patient.
func TestGenotypesParallelMatchesSerialOracle(t *testing.T) {
	shapes := []Config{
		{Patients: 40, SNPs: 1, SNPSets: 1},
		{Patients: 33, SNPs: 3, SNPSets: 1},
		{Patients: 1, SNPs: 57, SNPSets: 1},
		{Patients: 101, SNPs: 203, SNPSets: 1},
		{Patients: 64, SNPs: 20, SNPSets: 1, MinMAF: 0.2, MaxMAF: 0.2},
		{Patients: 64, SNPs: 9, SNPSets: 1, MinMAF: 1e-9, MaxMAF: 1 - 1e-9},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, cfg := range shapes {
		want := genotypesOracle(cfg, rng.New(5))
		for _, procs := range []int{1, 2, 7} {
			runtime.GOMAXPROCS(procs)
			got := Genotypes(cfg, rng.New(5))
			for j := range want {
				if !slices.Equal(got.Rows[j], want[j]) {
					t.Fatalf("%d×%d at GOMAXPROCS %d: row %d is %v, the serial oracle %v",
						cfg.SNPs, cfg.Patients, procs, j, got.Rows[j], want[j])
				}
			}
		}
	}
}

// checkThreshold reports whether the integer comparison FillGenotypeRow makes
// agrees with rng's Float64() < p for the draw u.
func checkThreshold(t *testing.T, u uint64, p float64) {
	t.Helper()
	k := u >> 11
	want := float64(k)/(1<<53) < p
	if got := k < bernoulliThreshold(p); got != want {
		t.Fatalf("u %#x, p %v (%#x): u>>11 < threshold %d is %v, Float64 < p is %v",
			u, p, math.Float64bits(p), bernoulliThreshold(p), got, want)
	}
	if got := (k-bernoulliThreshold(p))>>63 == 1; got != want {
		t.Fatalf("u %#x, p %v: the branch-free comparison is %v, Float64 < p is %v", u, p, got, want)
	}
}

// FuzzBernoulliThreshold: u>>11 < ceil(p·2⁵³) equals float64(u>>11)/2⁵³ < p,
// for every draw u and probability p; the seeds sit p on exact multiples of
// 2⁻⁵³, their neighbours and the MAF bounds, and u at its extremes and where
// u>>11 lands on those multiples.
func FuzzBernoulliThreshold(f *testing.F) {
	const ulp = 1.0 / (1 << 53)
	for _, p := range []float64{0.01, 0.5, 0.2, 1e-9, 1 - 1e-9, ulp, 3 * ulp, 0.25 + ulp, 1 - ulp, 0, 1, -0.5, 2} {
		for _, q := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, 1)} {
			k := uint64(q * (1 << 53))
			for _, u := range []uint64{0, math.MaxUint64, k << 11, (k+1)<<11 - 1, (k - 1) << 11} {
				f.Add(u, q)
			}
		}
	}
	f.Add(uint64(12345), math.NaN())
	f.Fuzz(func(t *testing.T, u uint64, p float64) {
		checkThreshold(t, u, p)
	})
}

// TestBernoulliThresholdEdges runs the fuzz target's edge cases, plus every
// draw around a threshold, in the normal test run.
func TestBernoulliThresholdEdges(t *testing.T) {
	r := rng.New(9)
	for i := 0; i < 2000; i++ {
		p := r.Float64()
		if i%2 == 0 {
			p = float64(r.Uint64()>>11) / (1 << 53) // an exact multiple of 2⁻⁵³
		}
		for _, q := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, 1)} {
			k := uint64(math.Ceil(q * (1 << 53)))
			for _, kk := range []uint64{k - 1, k, k + 1} {
				checkThreshold(t, kk<<11, q)
				checkThreshold(t, kk<<11|0x7ff, q)
			}
			checkThreshold(t, 0, q)
			checkThreshold(t, math.MaxUint64, q)
		}
	}
}

// BenchmarkGenotypes draws perm_scan's 1 000-patient × 10 000-SNP matrix and
// reports ns per genotype.
func BenchmarkGenotypes(b *testing.B) {
	cfg := Config{Patients: 1000, SNPs: 10000, SNPSets: 1}
	for b.Loop() {
		Genotypes(cfg, rng.New(1))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cfg.Patients*cfg.SNPs), "ns/genotype")
}
