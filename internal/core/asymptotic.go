// Distributed asymptotic SNP-set inference: the large-sample alternative to
// Algorithms 2 and 3. Each SNP-set's null distribution is approximated from
// the same per-patient contributions the resampling methods use — by the
// Liu moment-matching chi-square for SKAT, and by a 1-df chi-square for the
// burden statistic (whose quadratic form has a single eigenvalue).

package core

import (
	"fmt"
	"sort"

	"sparkscore/internal/data"
	"sparkscore/internal/rdd"
	"sparkscore/internal/stats"
)

// SetAsymptoticResult is one SNP-set's asymptotic test.
type SetAsymptoticResult struct {
	Set      int // index into Analysis.Sets()
	Name     string
	SNPs     int
	Observed float64
	PValue   float64
}

// packedRow is the SetAsymptotic shuffle unit: one SNP's 2-bit packed
// genotype column, routed to each set containing it — (patients+3)/4 genotype
// bytes per row.
type packedRow struct {
	SNP   int32
	Bytes []byte
}

// SetAsymptotic computes the observed set statistics and their asymptotic
// p-values for every SNP-set, distributed: packed genotype rows are routed to
// their sets with a shuffle and each set's moments are computed where its rows
// land.
func (a *Analysis) SetAsymptotic() ([]SetAsymptoticResult, error) {
	blocks, err := a.filteredGenotypeBlocks()
	if err != nil {
		return nil, err
	}
	index := a.index
	patients := a.patients
	rowBytes := int64(data.BlockRowBytes(patients))
	bySet := rdd.FlatMap(blocks, "bySetPacked", func(b data.GenoBlock) []rdd.KV[int, packedRow] {
		var out []rdd.KV[int, packedRow]
		for r := 0; r < b.Rows(); r++ {
			pr := packedRow{SNP: b.SNPs[r], Bytes: b.Row(r)}
			for _, k := range index.Value().of(int(pr.SNP)) {
				out = append(out, rdd.KV[int, packedRow]{K: int(k), V: pr})
			}
		}
		return out
	}).SetSizeHint(40 + rowBytes)

	grouped := rdd.GroupByKey(bySet, 0).SetSizeFunc(func(kv rdd.KV[int, []packedRow]) int64 {
		return 32 + int64(len(kv.V))*(32+rowBytes)
	})
	statName, null := a.setStat.Name(), a.null

	// Clock: a set of m rows charges m × patients operations for its
	// contribution vectors, times m for SKAT's Gram matrix of them.
	perSet := rdd.MapWithSetup(grouped, "liu", func(t rdd.Task) func(rdd.KV[int, []packedRow]) SetAsymptoticResult {
		return func(kv rdd.KV[int, []packedRow]) SetAsymptoticResult {
			ops := int64(len(kv.V)) * int64(patients)
			if statName == "skat" {
				ops *= int64(len(kv.V))
			}
			t.Charge(ops)
			rows := make([][]data.Genotype, len(kv.V))
			w := make([]float64, len(kv.V))
			for i, pr := range kv.V {
				g := make([]data.Genotype, patients)
				stats.DecodeDosageGenotypes(pr.Bytes, g)
				rows[i] = g
				w[i] = index.Value().weights[pr.SNP]
			}
			return setAsymptoticResult(statName, null.Value(), kv.K, rows, w)
		}
	}).SetSizeHint(48)

	results, err := rdd.Collect(perSet)
	if err != nil {
		return nil, err
	}
	for i := range results {
		results[i].Name = a.sets[results[i].Set].Name
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Set < results[j].Set })
	return results, nil
}

// setAsymptoticResult evaluates one set's asymptotic test from its decoded
// genotype rows.
func setAsymptoticResult(statName string, model stats.Model, set int, rows [][]data.Genotype, w []float64) SetAsymptoticResult {
	res := SetAsymptoticResult{Set: set, SNPs: len(rows)}
	var err error
	switch statName {
	case "skat":
		res.Observed, res.PValue, err = stats.SKATAsymptotic(model, rows, w)
		if err != nil {
			panic(err)
		}
	case "burden":
		res.Observed, res.PValue = burdenAsymptotic(model, rows, w)
	default:
		panic(fmt.Sprintf("core: no asymptotic approximation for set statistic %q", statName))
	}
	return res
}

// burdenAsymptotic tests the burden statistic (Σ ω U)² against its 1-df
// chi-square null using the empirical variance of the collapsed per-patient
// contributions.
func burdenAsymptotic(model stats.Model, rows [][]data.Genotype, weights []float64) (observed, pvalue float64) {
	n := model.Patients()
	collapsed := make([]float64, n)
	u := make([]float64, n)
	for r, g := range rows {
		model.Contributions(g, u)
		for i, v := range u {
			collapsed[i] += weights[r] * v
		}
	}
	var sum, sumSq float64
	for _, v := range collapsed {
		sum += v
		sumSq += v * v
	}
	observed = sum * sum
	pvalue = stats.ChiSquaredSurvival(stats.Chi2Stat(sum, sumSq), 1)
	return observed, pvalue
}
