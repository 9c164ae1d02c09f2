// The four workloads and their seeded inputs. Inputs are generated and text
// encoded once per run; the program under test only ever sees the staged DFS
// files.

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"sparkscore/internal/cluster"
	"sparkscore/internal/core"
	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/rdd"
	"sparkscore/internal/rng"
)

// dfsBlockSize splits the 20–40 MB genotype files into 10–20 partitions, the
// geometry of the paper's 1M-SNP runs; at the 128 MiB default each file would
// be one block and every scan one task.
const dfsBlockSize = 2 << 20

// plantedEffect is the expression shift per minor allele at a planted pair:
// with n = 1000 and MAF >= plantedMinMAF the pair's z-score is ~18, far above
// anything 5 M null tests produce, so planted pairs must lead the top-K.
const (
	plantedEffect = 1.0
	plantedMinMAF = 0.2
)

// shape sizes a workload. The committed shapes are in workloads; the self-test
// runs the same code on tiny ones.
type shape struct {
	Patients int `json:"patients"`
	SNPs     int `json:"snps"`
	Sets     int `json:"sets,omitempty"`

	// Phenos is the number of expression phenotypes (0 = no all-pairs
	// analysis); Planted of them carry a planted cis effect.
	Phenos  int `json:"phenos,omitempty"`
	Planted int `json:"planted,omitempty"`

	// Iterations is the resampling replicates per pass (mc_cached, perm_scan).
	Iterations int `json:"iterations,omitempty"`

	// Warmup and Segment are serve_mixed's request counts: warm-up requests
	// before timing, and requests per timed segment.
	Warmup  int `json:"warmup,omitempty"`
	Segment int `json:"segment,omitempty"`
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name  string
	Why   string // one line, copied into BENCHMARK.json
	Op    string // the unit ops_per_s counts
	Shape shape

	// run measures the workload at w.Shape (the self-test substitutes tiny
	// shapes), untraced or traced as o says.
	run func(w workload, o runOptions) (*runReport, error)
}

var workloads = []workload{
	{
		Name:  "eqtl_wide",
		Why:   "Kernel-bound all-pairs cross in one job of ~20 tasks: wide-kernel, p-value and top-K work must show here; scheduler and shuffle work must not.",
		Op:    "(SNP, phenotype) test",
		Shape: shape{Patients: 1000, SNPs: 20000, Phenos: 256, Planted: 3},
		run:   batchRunner(eqtlPipeline),
	},
	{
		Name:  "mc_cached",
		Why:   "Paper's Algorithm 3: 300 cached-read replicates per pass, about half rdd scheduling and shuffle, half UBlock mat-vec; parse work must not show.",
		Op:    "Monte Carlo replicate",
		Shape: shape{Patients: 500, SNPs: 20000, Sets: 200, Iterations: 300},
		run:   batchRunner(monteCarloPipeline),
	},
	{
		Name:  "perm_scan",
		Why:   "Paper's Algorithm 2: every replicate re-scans 20 MB of genotype text, so parse+pack and the Cox kernel dominate; mc_cached's layers used the other way round.",
		Op:    "permutation replicate",
		Shape: shape{Patients: 1000, SNPs: 10000, Sets: 100, Iterations: 20},
		run:   batchRunner(permutationPipeline),
	},
	{
		Name:  "serve_mixed",
		Why:   "Long-lived job server behind real HTTP, 2 closed-loop clients: 70% unique replicate jobs, 20% result-cache hits, 10% memoised eQTL pages.",
		Op:    "HTTP request",
		Shape: shape{Patients: 1000, SNPs: 10000, Sets: 100, Phenos: 32, Warmup: 200, Segment: 200},
		run:   runServe,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pair is one (SNP, phenotype) cell of the all-pairs cross.
type pair struct{ SNP, Pheno int32 }

// inputs holds one workload's generated files in the text formats the DFS
// stages, plus what the checks need to know about how they were made.
type inputs struct {
	shape shape
	seed  uint64

	geno    []byte
	pheno   []byte // nil when the workload has no SKAT analysis (Sets == 0)
	weights []byte
	sets    []byte
	expr    []byte // expression matrix; nil when Phenos == 0

	planted []pair
	digest  string // sha256 over every file

	generateSec, encodeSec float64
}

const (
	genoPath    = "input/genotypes.txt"
	phenoPath   = "input/phenotype.txt"
	weightsPath = "input/weights.txt"
	setsPath    = "input/snpsets.txt"
	exprPath    = "input/phenomatrix.txt"
)

// makeInputs generates and encodes the workload's files from the seed: the
// same seed gives byte-identical files.
func makeInputs(sh shape, seed uint64) (*inputs, error) {
	in := &inputs{shape: sh, seed: seed}
	cfg := gen.Config{Patients: sh.Patients, SNPs: sh.SNPs, SNPSets: sh.Sets}

	var (
		ds   *data.Dataset
		geno *data.GenotypeMatrix
		expr *data.PhenoMatrix
		err  error
	)
	in.generateSec = timed(func() {
		if sh.Sets > 0 {
			if ds, err = gen.Generate(cfg, seed); err != nil {
				return
			}
			geno = ds.Genotypes
		} else {
			geno = gen.Genotypes(cfg, rng.New(seed))
		}
		if sh.Phenos > 0 {
			expr = gen.ExpressionMatrix(cfg, rng.New(seed), sh.Phenos)
			in.planted = plant(geno, expr, sh.Planted, rng.New(seed^0x9e37))
		}
	})
	if err != nil {
		return nil, err
	}

	in.encodeSec = timed(func() {
		encode := func(dst *[]byte, write func(*bytes.Buffer) error) {
			if err != nil {
				return
			}
			var buf bytes.Buffer
			if err = write(&buf); err == nil {
				*dst = buf.Bytes()
			}
		}
		encode(&in.geno, func(b *bytes.Buffer) error { return data.WriteGenotypes(b, geno) })
		if ds != nil {
			encode(&in.pheno, func(b *bytes.Buffer) error { return data.WritePhenotype(b, ds.Phenotype) })
			encode(&in.weights, func(b *bytes.Buffer) error { return data.WriteWeights(b, ds.Weights) })
			encode(&in.sets, func(b *bytes.Buffer) error { return data.WriteSNPSets(b, ds.SNPSets) })
		}
		if expr != nil {
			encode(&in.expr, func(b *bytes.Buffer) error { return data.WritePhenoMatrix(b, expr) })
		}
	})
	if err != nil {
		return nil, fmt.Errorf("encoding inputs: %w", err)
	}

	var all [][]byte
	for _, f := range in.files() {
		all = append(all, f.data)
	}
	in.digest = digestHex(all...)
	return in, nil
}

// digestHex is the sha256 of the chunks, concatenated.
func digestHex(chunks ...[]byte) string {
	h := sha256.New()
	for _, c := range chunks {
		h.Write(c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// plant adds plantedEffect × dosage of a common SNP to n distinct phenotype
// rows and returns the planted pairs.
func plant(geno *data.GenotypeMatrix, expr *data.PhenoMatrix, n int, r *rng.RNG) []pair {
	var out []pair
	usedPheno := map[int]bool{}
	for len(out) < n && len(usedPheno) < expr.Rows() {
		j := r.Intn(geno.SNPs())
		alleles := 0
		for _, g := range geno.Row(j) {
			alleles += int(g)
		}
		if float64(alleles) < plantedMinMAF*2*float64(geno.Patients) {
			continue
		}
		p := r.Intn(expr.Rows())
		if usedPheno[p] {
			continue
		}
		usedPheno[p] = true
		row := expr.Row(p)
		for i, g := range geno.Row(j) {
			row[i] += plantedEffect * float64(g)
		}
		out = append(out, pair{SNP: int32(j), Pheno: expr.IDs[p]})
	}
	return out
}

type stagedFile struct {
	path string
	data []byte
}

// files lists the generated files with their DFS paths, in a fixed order.
func (in *inputs) files() []stagedFile {
	var out []stagedFile
	for _, f := range []stagedFile{
		{genoPath, in.geno}, {phenoPath, in.pheno}, {weightsPath, in.weights},
		{setsPath, in.sets}, {exprPath, in.expr},
	} {
		if f.data != nil {
			out = append(out, f)
		}
	}
	return out
}

// bytes is the total size of the generated files.
func (in *inputs) bytes() int {
	n := 0
	for _, f := range in.files() {
		n += len(f.data)
	}
	return n
}

// stage writes every file onto the context's DFS. The DFS keeps the slices it
// is given, so passes share one copy of the text.
func (in *inputs) stage(ctx *rdd.Context) error {
	for _, f := range in.files() {
		if _, err := ctx.FS().Write(f.path, f.data); err != nil {
			return fmt.Errorf("staging %s: %w", f.path, err)
		}
	}
	return nil
}

// corePaths names the SKAT analysis's staged files.
func corePaths() core.Paths {
	return core.Paths{Genotypes: genoPath, Phenotype: phenoPath, Weights: weightsPath, SNPSets: setsPath}
}

// coreOptions are the SKAT analysis options of every workload: Cox scores,
// SKAT aggregation, columnar engine, resampling draws from the run's seed.
func coreOptions(seed uint64) core.Options {
	return core.Options{Family: "cox", Seed: seed}
}

// ctxOptions are the few engine settings the benchmark varies; everything
// else is sparkscore's default (6 × m3.2xlarge, 2 executors × 4 cores, 10 GiB).
type ctxOptions struct {
	scheduler rdd.SchedulerConfig
	listener  rdd.Listener // nil on untraced runs
	workers   int          // 0 = the program default, runtime.NumCPU()
}

func newContext(seed uint64, o ctxOptions) (*rdd.Context, error) {
	cfg := rdd.Config{
		Cluster: cluster.Config{
			Nodes: 6, Spec: cluster.M3TwoXLarge,
			ExecutorsPerNode: 2, CoresPerExecutor: 4, MemPerExecutorGiB: 10,
		},
		Seed:         seed,
		DFSBlockSize: dfsBlockSize,
		Scheduler:    o.scheduler,
		Workers:      o.workers,
	}
	if o.listener != nil {
		cfg.Listeners = []rdd.Listener{o.listener}
	}
	return rdd.New(cfg)
}
