package core

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"sparkscore/internal/data"
	"sparkscore/internal/rdd"
	"sparkscore/internal/replaytest"
)

// TestSetAsymptoticChargesItsWork pins SetAsymptotic's two jobs on a cold
// analysis: the text is scanned once, by the observed pass, which charges
// rows × patients like every score pass; the liu job reads the cached blocks
// and its sets charge exactly the work the stage does on sets of known sizes —
// m × n for the contributions of m rows; for SKAT the m × m Gram matrix,
// m(m+1)/2 × n, and its square, m³; for burden m × n for the sum, then the
// Gram and square of that one vector, n + 1.
func TestSetAsymptoticChargesItsWork(t *testing.T) {
	const n = 50
	ds := testDataset(t, n, 40, 3, 6)
	ds.SNPSets = data.SNPSets{
		{Name: "one", SNPs: []int{7}},
		{Name: "four", SNPs: []int{0, 3, 7, 12}},
		{Name: "nine", SNPs: []int{1, 2, 4, 5, 6, 8, 9, 10, 11}},
	}
	const rows = 13 // SNPs 0 … 12, SNP 7 in two sets
	for stat, liu := range map[string]func(m int64) int64{
		"skat":   func(m int64) int64 { return m*n + m*(m+1)/2*n + m*m*m },
		"burden": func(m int64) int64 { return 2*m*n + n + 1 },
	} {
		ctx := testContext(t, 2)
		a := stagedAnalysis(t, ctx, ds, Options{SetStatistic: stat})
		text, err := ctx.FS().ReadAll(a.genoPath)
		if err != nil {
			t.Fatal(err)
		}
		before := len(ctx.Jobs())
		if _, err := a.SetAsymptotic(); err != nil {
			t.Fatal(err)
		}
		jobs := ctx.Jobs()[before:]
		if len(jobs) != 2 {
			t.Fatalf("%s: SetAsymptotic ran %d jobs, want 2", stat, len(jobs))
		}
		if want := liu(1) + liu(4) + liu(9); jobs[1].Ops != want {
			t.Errorf("%s: the liu job charged %d operations, want %d", stat, jobs[1].Ops, want)
		}
		if jobs[0].Ops != rows*n {
			t.Errorf("%s: the observed pass charged %d operations, want %d", stat, jobs[0].Ops, rows*n)
		}
		if jobs[0].DFSBytes != int64(len(text)) || jobs[1].DFSBytes != 0 || jobs[1].CacheReadBytes == 0 {
			t.Errorf("%s: jobs read %d and %d text bytes (the liu job %d cached bytes), want the %d-byte text once and then the cache",
				stat, jobs[0].DFSBytes, jobs[1].DFSBytes, jobs[1].CacheReadBytes, len(text))
		}
		if cached := ctx.CachedBytes(); cached != 0 {
			t.Errorf("%s: %d bytes still cached after SetAsymptotic", stat, cached)
		}
	}
}

// TestAsymptoticRoutesReplayUnderChaos puts MarginalAsymptotic and
// SetAsymptotic through the Workers ∈ {1, 2, 8} × 5 replay matrix under the
// chaos profile: every score, variance, statistic and p-value is the same bits
// as a fault-free run's, and reports, job fingerprints and event logs repeat
// byte for byte whatever the host parallelism.
func TestAsymptoticRoutesReplayUnderChaos(t *testing.T) {
	ds := testDataset(t, 61, 200, 9, 7)
	run := func(a *Analysis) string {
		marginal, err := a.MarginalAsymptotic()
		if err != nil {
			t.Fatal(err)
		}
		sets, err := a.SetAsymptotic()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, m := range marginal {
			fmt.Fprintf(&sb, "snp %d %016x %016x %016x\n", m.SNP,
				math.Float64bits(m.Score), math.Float64bits(m.Variance), math.Float64bits(m.PValue))
		}
		for _, s := range sets {
			fmt.Fprintf(&sb, "set %d %s %d %016x %016x\n", s.Set, s.Name, s.SNPs,
				math.Float64bits(s.Observed), math.Float64bits(s.PValue))
		}
		return sb.String()
	}
	chaos := replaytest.AcrossWorkers(t, func(workers int) replaytest.Observation {
		return replayRun(t, ds, chaosProfile, workers, run)
	})
	clean := replayRun(t, ds, rdd.FaultProfile{}, 0, run)
	if chaos.Result != clean.Result {
		t.Fatalf("chaos changed the asymptotic results:\n%s", replaytest.FirstDiff(chaos.Result, clean.Result))
	}
	for _, want := range []string{`"type":"FetchFailure"`, `"type":"StageResubmitted"`, `"type":"NodeLost"`, "injected task crash"} {
		re := regexp.MustCompile(want)
		if !re.MatchString(chaos.Log) || re.MatchString(clean.Log) {
			t.Errorf("%s: want it in the chaos log and not in the clean one; the pin is vacuous for it", want)
		}
	}
}

// TestRankingsBreakTiesByIndex: both asymptotic rankings put the smallest
// p-value first and tied results in index order, whatever order they come
// in and whatever their names: set2 before set10, which name order swaps.
func TestRankingsBreakTiesByIndex(t *testing.T) {
	sets := []SetAsymptoticResult{
		{Set: 10, Name: "set10", PValue: 0.4}, {Set: 3, Name: "set3", PValue: 0.9},
		{Set: 2, Name: "set2", PValue: 0.4}, {Set: 7, Name: "set7", PValue: 0.1},
	}
	RankSetAsymptotic(sets)
	var got []string
	for _, r := range sets {
		got = append(got, r.Name)
	}
	if s := strings.Join(got, " "); s != "set7 set2 set10 set3" {
		t.Errorf("RankSetAsymptotic: %s, want set7 set2 set10 set3", s)
	}

	snps := []MarginalResult{{SNP: 9, PValue: 0.5}, {SNP: 4, PValue: 0.5}, {SNP: 1, PValue: 0.7}, {SNP: 6, PValue: 0.2}, {SNP: 2, PValue: 0.5}}
	RankMarginal(snps)
	got = got[:0]
	for _, r := range snps {
		got = append(got, fmt.Sprint(r.SNP))
	}
	if s := strings.Join(got, " "); s != "6 2 4 9 1" {
		t.Errorf("RankMarginal: %s, want 6 2 4 9 1", s)
	}
}
