// Package gen implements the synthetic data generator of Section III of the
// paper. The paper generated these inputs in R; the distributions are
// reproduced exactly:
//
//   - survival time Y_i ~ Exponential(rate 1/12), i.e. mean 12 months;
//   - event indicator Δ_i ~ Bernoulli(0.85), applied independently of Y
//     ("the event indicator is applied arbitrarily");
//   - genotype G_ij ~ Binomial(2, ρ_j) with the relative allelic frequency
//     ρ_j varied across SNPs;
//   - SNP-set sizes drawn from an exponential distribution with mean m/K
//     (m SNPs, K sets), rounded down, with values in (0,1) rounded up to 1;
//   - the final set K is augmented with every SNP not picked by sets 1..K-1
//     so the computation cost accounts for all m SNPs.
//
// SNPs are generated independently (the paper notes real SNPs are correlated
// but that correlation is irrelevant for measuring computational efficiency).
package gen

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"sparkscore/internal/data"
	"sparkscore/internal/rng"
)

// Config specifies the shape of a synthetic dataset. The fields mirror the
// input-parameter tables of the paper (Tables II, IV, VI, VII).
type Config struct {
	Patients int // n
	SNPs     int // m
	SNPSets  int // K

	// MinMAF and MaxMAF bound the uniform draw of the relative allelic
	// frequency ρ_j. Zero values default to (0.01, 0.5), the usual range
	// from rare variants up to balanced polymorphisms.
	MinMAF, MaxMAF float64

	// EventRate is the Bernoulli parameter for Δ; zero defaults to the
	// paper's 0.85.
	EventRate float64

	// MeanSurvival is the mean of the exponential survival time; zero
	// defaults to the paper's 12 (months).
	MeanSurvival float64
}

func (c Config) withDefaults() Config {
	if c.MinMAF == 0 && c.MaxMAF == 0 {
		c.MinMAF, c.MaxMAF = 0.01, 0.5
	}
	if c.EventRate == 0 {
		c.EventRate = 0.85
	}
	if c.MeanSurvival == 0 {
		c.MeanSurvival = 12
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	c = c.withDefaults()
	for _, f := range []struct {
		name string
		v    float64
	}{{"MinMAF", c.MinMAF}, {"MaxMAF", c.MaxMAF}, {"EventRate", c.EventRate}, {"MeanSurvival", c.MeanSurvival}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("gen: %s = %g, must be finite", f.name, f.v)
		}
	}
	switch {
	case c.Patients <= 0:
		return fmt.Errorf("gen: Patients = %d, must be positive", c.Patients)
	case c.SNPs <= 0:
		return fmt.Errorf("gen: SNPs = %d, must be positive", c.SNPs)
	case c.SNPSets <= 0:
		return fmt.Errorf("gen: SNPSets = %d, must be positive", c.SNPSets)
	case c.SNPSets > c.SNPs:
		return fmt.Errorf("gen: more SNP-sets (%d) than SNPs (%d)", c.SNPSets, c.SNPs)
	case c.MinMAF <= 0 || c.MaxMAF >= 1 || c.MinMAF > c.MaxMAF:
		return fmt.Errorf("gen: MAF range (%g,%g) not within (0,1)", c.MinMAF, c.MaxMAF)
	case c.EventRate <= 0 || c.EventRate > 1:
		return fmt.Errorf("gen: EventRate = %g outside (0,1]", c.EventRate)
	case c.MeanSurvival <= 0:
		return fmt.Errorf("gen: MeanSurvival = %g, must be positive", c.MeanSurvival)
	}
	return nil
}

// Generate builds a complete dataset from cfg, deterministically from seed.
// Distinct components (phenotype, each genotype row, set sizes) use split RNG
// streams, so generating the same configuration twice yields identical data
// regardless of internal iteration changes.
func Generate(cfg Config, seed uint64) (*data.Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	root := rng.New(seed)

	return &data.Dataset{
		Genotypes: Genotypes(cfg, root.Split(1)),
		Phenotype: Phenotype(cfg, root.Split(2)),
		Weights:   FlatWeights(cfg.SNPs),
		SNPSets:   Sets(cfg, root.Split(3)),
	}, nil
}

// Phenotype draws the survival outcomes (Y_i, Δ_i) for cfg.Patients patients.
func Phenotype(cfg Config, r *rng.RNG) *data.Phenotype {
	cfg = cfg.withDefaults()
	p := data.NewPhenotype(cfg.Patients)
	for i := range p.Y {
		p.Y[i] = r.Exponential(1 / cfg.MeanSurvival)
		if r.Bernoulli(cfg.EventRate) {
			p.Event[i] = 1
		}
	}
	return p
}

// Genotypes draws the SNP-major genotype matrix. Each SNP row derives its own
// RNG stream keyed by the SNP index, and Split does not advance the parent, so
// the rows are drawn in parallel — GOMAXPROCS contiguous row ranges, one
// goroutine each — and the matrix is a function of the seed alone, whatever
// the number of cores.
func Genotypes(cfg Config, r *rng.RNG) *data.GenotypeMatrix {
	cfg = cfg.withDefaults()
	m := data.NewGenotypeMatrix(cfg.SNPs, cfg.Patients)
	workers := min(runtime.GOMAXPROCS(0), cfg.SNPs)
	var wg sync.WaitGroup
	for w := range workers {
		lo, hi := w*cfg.SNPs/workers, (w+1)*cfg.SNPs/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := lo; j < hi; j++ {
				FillGenotypeRow(m.Rows[j], cfg, r, j)
			}
		}()
	}
	wg.Wait()
	return m
}

// FillGenotypeRow fills row with the genotypes of SNP j: ρ_j is drawn
// uniformly from the configured MAF range, then each genotype is
// Binomial(2, ρ_j), two Bernoulli(ρ_j) trials drawn in the order and with the
// bits of rng's Binomial(2, ρ_j), compared against an integer threshold
// without a branch. Exposed so large matrices can be generated partition by
// partition inside the engine without materialising the whole matrix first.
func FillGenotypeRow(row []data.Genotype, cfg Config, r *rng.RNG, j int) {
	cfg = cfg.withDefaults()
	rr := r.Split(uint64(j))
	rho := cfg.MinMAF + rr.Float64()*(cfg.MaxMAF-cfg.MinMAF)
	t := bernoulliThreshold(rho)
	for i := range row {
		a := rr.Uint64()>>11 - t
		b := rr.Uint64()>>11 - t
		row[i] = data.Genotype(a>>63 + b>>63)
	}
}

// bernoulliThreshold returns the t for which u>>11 < t holds exactly when
// rng's Float64 = float64(u>>11)/2⁵³ is below p, for every 64-bit draw u:
// p·2⁵³ is exact, and an integer below 2⁵³ is below it exactly when it is
// below its ceiling. Both sides of the comparison are below 2⁵⁴, so
// (u>>11 − t)>>63 is the comparison as 0 or 1.
func bernoulliThreshold(p float64) uint64 {
	switch {
	case !(p > 0): // NaN too: no draw is below it
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// GenoBlocks draws the genotype matrix directly into packed 2-bit columnar
// blocks of up to rowsPerBlock SNP rows each, without materialising a boxed
// matrix. Each row uses the same per-SNP split stream as Genotypes, so the
// packed blocks decode to exactly the matrix Genotypes(cfg, r) would return.
func GenoBlocks(cfg Config, r *rng.RNG, rowsPerBlock int) []data.GenoBlock {
	cfg = cfg.withDefaults()
	if rowsPerBlock <= 0 {
		rowsPerBlock = 256
	}
	var blocks []data.GenoBlock
	row := make([]data.Genotype, cfg.Patients)
	for j := 0; j < cfg.SNPs; j += rowsPerBlock {
		hi := j + rowsPerBlock
		if hi > cfg.SNPs {
			hi = cfg.SNPs
		}
		blk := data.NewGenoBlock(cfg.Patients, hi-j)
		for jj := j; jj < hi; jj++ {
			FillGenotypeRow(row, cfg, r, jj)
			if err := blk.AppendRow(jj, row); err != nil {
				panic(err) // unreachable: generated genotypes are in {0,1,2}
			}
		}
		blocks = append(blocks, blk)
	}
	return blocks
}

// FlatWeights returns the unit SKAT weights used throughout the paper's
// experiments (the weights file exists as an input, but the synthetic study
// does not vary it).
func FlatWeights(snps int) data.Weights {
	w := make(data.Weights, snps)
	for j := range w {
		w[j] = 1
	}
	return w
}

// Sets partitions SNPs into cfg.SNPSets sets following Section III: the size
// of each set is drawn from an exponential distribution with mean m/K,
// rounded down (up to 1 from (0,1)); members are sampled arbitrarily from all
// SNPs without replacement; and the last set is augmented with all SNPs not
// picked by sets 1..K-1, so every SNP is analysed.
func Sets(cfg Config, r *rng.RNG) data.SNPSets {
	cfg = cfg.withDefaults()
	m, k := cfg.SNPs, cfg.SNPSets
	mean := float64(m) / float64(k)

	// Draw from a random permutation of all SNPs so set membership is
	// arbitrary and sampling without replacement is a slice walk.
	pool := r.Perm(m)
	next := 0
	take := func(want int) []int {
		if remaining := len(pool) - next; want > remaining {
			want = remaining
		}
		s := pool[next : next+want]
		next += want
		return s
	}

	sets := make(data.SNPSets, 0, k)
	for kk := 0; kk < k-1; kk++ {
		size := int(r.Exponential(1 / mean))
		if size < 1 {
			size = 1
		}
		members := take(size)
		if len(members) == 0 {
			// Pool exhausted early: reuse an arbitrary SNP so the set stays
			// non-empty (the partition property is best-effort, as in the
			// paper where set K absorbs the remainder).
			members = []int{pool[r.Intn(m)]}
		}
		sets = append(sets, data.SNPSet{Name: setName(kk), SNPs: cloneInts(members)})
	}
	// Set K: everything not yet picked (at least one SNP).
	rest := pool[next:]
	if len(rest) == 0 {
		rest = []int{pool[r.Intn(m)]}
	}
	sets = append(sets, data.SNPSet{Name: setName(k - 1), SNPs: cloneInts(rest)})
	return sets
}

// Covariates draws baseline covariates for cfg.Patients patients: a
// standardised age (N(0,1)) and a balanced 0/1 sex indicator — the kind of
// clinical variables an adjusted analysis controls for.
func Covariates(cfg Config, r *rng.RNG) *data.Covariates {
	cfg = cfg.withDefaults()
	rows := make([][]float64, cfg.Patients)
	for i := range rows {
		sex := 0.0
		if r.Bernoulli(0.5) {
			sex = 1
		}
		rows[i] = []float64{r.Normal(), sex}
	}
	return &data.Covariates{Rows: rows}
}

func setName(k int) string { return fmt.Sprintf("set%d", k) }

func cloneInts(a []int) []int {
	out := make([]int, len(a))
	copy(out, a)
	return out
}
