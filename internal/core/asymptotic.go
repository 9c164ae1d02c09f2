// Distributed asymptotic SNP-set inference: the large-sample alternative to
// Algorithms 2 and 3. Each set's observed statistic is the one the resampling
// methods compare against — Algorithm 1's fold, the same bits as Observed() —
// and its null distribution is approximated from the per-patient
// contributions by the Liu moment-matching chi-square, for SKAT and for the
// burden statistic alike (burden's quadratic form has a single eigenvalue, so
// the match is its 1-df chi-square).

package core

import (
	"iter"
	"slices"
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

// RankSetAsymptotic orders results by p-value, ties by set index as
// sparkscore's resampling table breaks them: the order sparkscore -asymptotic
// prints and /v1/skat serves.
func RankSetAsymptotic(results []SetAsymptoticResult) {
	sort.Slice(results, func(i, j int) bool {
		if results[i].PValue != results[j].PValue {
			return results[i].PValue < results[j].PValue
		}
		return results[i].Set < results[j].Set
	})
}

// packedRow is the SetAsymptotic shuffle unit: one SNP's 2-bit packed
// genotype column, routed to each set containing it — (patients+3)/4 genotype
// bytes per row.
type packedRow struct {
	SNP   int32
	Bytes []byte
}

// setMoments is the liu stage's answer for one set: how many rows it holds and
// the cumulants of its statistic's null quadratic form.
type setMoments struct {
	set, snps int
	moments   stats.SKATMoments
}

// SetAsymptotic computes the observed set statistics and their asymptotic
// p-values for every SNP-set, in two jobs over one scan of the text: the
// observed statistics by scoreStats, then the null moments, distributed —
// packed genotype rows are routed to their sets with a shuffle and each set's
// moments are computed where its rows land.
func (a *Analysis) SetAsymptotic() ([]SetAsymptoticResult, error) {
	blocks, release, err := a.source(true)
	if err != nil {
		return nil, err
	}
	defer release()
	observed, err := a.scoreStats(blocks, a.null.Value().ScoreResiduals())
	if err != nil {
		return nil, err
	}
	index := a.index
	patients := a.patients
	rowBytes := int64(data.BlockRowBytes(patients))
	bySet := rdd.FlatMap(blocks, "bySetPacked", func(b data.GenoBlock) iter.Seq[rdd.KV[int, packedRow]] {
		var out []rdd.KV[int, packedRow]
		for r := 0; r < b.Rows(); r++ {
			pr := packedRow{SNP: b.SNPs[r], Bytes: b.Row(r)}
			for _, k := range index.Value().of(int(pr.SNP)) {
				out = append(out, rdd.KV[int, packedRow]{K: int(k), V: pr})
			}
		}
		return slices.Values(out)
	}).SetSizeHint(40 + rowBytes)

	grouped := rdd.GroupByKey(bySet, 0).SetSizeFunc(func(kv rdd.KV[int, []packedRow]) int64 {
		return 32 + int64(len(kv.V))*(32+rowBytes)
	})
	burden, null := a.setStat.Name() == "burden", a.null

	// Clock: a set of m rows charges m × patients for its contribution
	// vectors, m × patients more for burden's sum of them, then k(k+1)/2 ×
	// patients for the Gram matrix of the k weighted vectors (k = m for SKAT,
	// 1 for burden) and k³ for squaring it.
	perSet := rdd.MapWithSetup(grouped, "liu", func(t rdd.Task) func(rdd.KV[int, []packedRow]) setMoments {
		kernel, weights := stats.NewBlockKernel(null.Value()), index.Value().weights
		return func(kv rdd.KV[int, []packedRow]) setMoments {
			blk := data.NewGenoBlock(patients, len(kv.V))
			for _, pr := range kv.V {
				blk.SNPs = append(blk.SNPs, pr.SNP)
				blk.Packed = append(blk.Packed, pr.Bytes...)
			}
			u := kernel.Contributions(blk)
			v := make([][]float64, len(kv.V))
			for r := range v {
				w := weights[blk.SNPs[r]]
				v[r] = u.Row(r)
				for i := range v[r] {
					v[r][i] *= w
				}
			}
			m, n := int64(len(v)), int64(patients)
			ops := m * n
			if burden {
				for _, row := range v[1:] {
					for i, x := range row {
						v[0][i] += x
					}
				}
				v, ops = v[:1], 2*m*n
			}
			k := int64(len(v))
			t.Charge(ops + k*(k+1)/2*n + k*k*k)
			return setMoments{set: kv.K, snps: len(kv.V), moments: stats.ComputeSKATMoments(v)}
		}
	}).SetSizeHint(48)

	moments, err := rdd.Collect(perSet)
	if err != nil {
		return nil, err
	}
	results := make([]SetAsymptoticResult, len(moments))
	for i, m := range moments {
		results[i] = SetAsymptoticResult{
			Set: m.set, Name: a.sets[m.set].Name, SNPs: m.snps,
			Observed: observed[m.set], PValue: stats.LiuPValue(observed[m.set], m.moments),
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Set < results[j].Set })
	return results, nil
}
