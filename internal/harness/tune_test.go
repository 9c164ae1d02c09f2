package harness

import (
	"testing"

	"sparkscore/internal/cluster"
)

func TestGridFeasible(t *testing.T) {
	cands := Grid(cluster.M3TwoXLarge)
	if len(cands) < 6 {
		t.Fatalf("grid has only %d candidates", len(cands))
	}
	seen := map[Candidate]bool{}
	for _, c := range cands {
		if seen[c] {
			t.Fatalf("duplicate candidate %v", c)
		}
		seen[c] = true
		cfg := cluster.Config{
			Nodes: 2, Spec: cluster.M3TwoXLarge,
			ExecutorsPerNode: c.ExecutorsPerNode, CoresPerExecutor: c.CoresPerExecutor,
			MemPerExecutorGiB: c.MemPerExecutorGiB,
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("grid produced infeasible layout %v: %v", c, err)
		}
	}
}

func TestGridTinyNode(t *testing.T) {
	if cands := Grid(cluster.NodeSpec{VCPUs: 1, MemGiB: 1}); cands != nil {
		t.Fatalf("grid on a node with no usable memory produced %v", cands)
	}
}

// TestTuneRanksMemoryStarvedLayoutsLast tunes a 1/128 stand-in — 1 MiB
// blocks, overheads and executor memory divided by 128 — where one layout's
// executors cannot hold a cached partition.
func TestTuneRanksMemoryStarvedLayoutsLast(t *testing.T) {
	h := &Harness{Scale: 128, Seed: 3}
	p := Params{
		Patients: 500, SNPs: 4000 * 128, SNPSets: 40 * 128, Nodes: 2,
		// Ten resampling jobs after the observed pass, which is what the 2x
		// threshold below was set for: Monte Carlo batches 64 replicates per
		// job, so the 10 iterations of the job-per-replicate days are 640.
		Method: "mc", Cache: true, Iterations: 10 * 64,
	}
	roomy := Candidate{ExecutorsPerNode: 2, CoresPerExecutor: 4, MemPerExecutorGiB: 10}
	// The cached packed matrix here is ~0.5 MB in four partitions; executors
	// of 8 MiB / 128 = 64 KiB cannot hold one, forcing recomputation in every
	// job.
	starved := Candidate{ExecutorsPerNode: 2, CoresPerExecutor: 4, MemPerExecutorGiB: 8.0 / 1024}
	evals, err := h.Tune(p, []Candidate{starved, roomy})
	if err != nil {
		t.Fatal(err)
	}
	if evals[0].Err != nil || evals[1].Err != nil {
		t.Fatalf("unexpected errors: %+v", evals)
	}
	if evals[0].Candidate != roomy {
		t.Fatalf("best candidate %v, want the roomy layout (times %.2f vs %.2f)",
			evals[0].Candidate, evals[0].SimSeconds, evals[1].SimSeconds)
	}
	if evals[1].SimSeconds < 2*evals[0].SimSeconds {
		t.Fatalf("starved layout only %.2fx slower", evals[1].SimSeconds/evals[0].SimSeconds)
	}
}

// TestTuneRankingIsReproducible tunes one workload twice over the whole grid:
// scores are counted work on a virtual clock, so the two rankings must be the
// same evaluations in the same order — ties included, which a clock that read
// the host's stopwatch reordered from run to run.
func TestTuneRankingIsReproducible(t *testing.T) {
	p := Params{Patients: 50, SNPs: 500, SNPSets: 5, Nodes: 2, Method: "mc", Cache: true, Iterations: 4}
	tune := func() []Evaluation {
		evals, err := (&Harness{Scale: 1, Seed: 1}).Tune(p, Grid(cluster.M3TwoXLarge))
		if err != nil {
			t.Fatal(err)
		}
		return evals
	}
	first, second := tune(), tune()
	for i := range first {
		if first[i].Err != nil || second[i].Err != nil {
			t.Fatalf("rank %d: unexpected errors %v, %v", i+1, first[i].Err, second[i].Err)
		}
		if first[i] != second[i] {
			t.Errorf("rank %d: %v at %v sim-s, then %v at %v sim-s", i+1,
				first[i].Candidate, first[i].SimSeconds, second[i].Candidate, second[i].SimSeconds)
		}
	}
}

func TestTuneInfeasibleCandidatesSortLast(t *testing.T) {
	h := &Harness{Scale: 1, Seed: 1}
	p := Params{Patients: 50, SNPs: 100, SNPSets: 5, Nodes: 1, Method: "mc", Cache: true, Iterations: 1}
	ok := Candidate{ExecutorsPerNode: 2, CoresPerExecutor: 4, MemPerExecutorGiB: 8}
	bad := Candidate{ExecutorsPerNode: 8, CoresPerExecutor: 8, MemPerExecutorGiB: 8} // 64 cores on 8 vCPUs
	evals, err := h.Tune(p, []Candidate{bad, ok})
	if err != nil {
		t.Fatal(err)
	}
	if evals[0].Candidate != ok || evals[0].Err != nil {
		t.Fatalf("feasible candidate not ranked first: %+v", evals)
	}
	if evals[1].Err == nil {
		t.Fatal("infeasible candidate scored without error")
	}
}

// TestTuneValidation: zero nodes, an empty candidate list and a dataset the
// generator refuses each fail the whole search before any layout runs.
func TestTuneValidation(t *testing.T) {
	h := &Harness{Scale: 1, Seed: 1}
	p := Params{Patients: 10, SNPs: 10, SNPSets: 2, Nodes: 1, Method: "mc", Cache: true}
	grid := Grid(cluster.M3TwoXLarge)
	zeroNodes := p
	zeroNodes.Nodes = 0
	if _, err := h.Tune(zeroNodes, grid); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := h.Tune(p, nil); err == nil {
		t.Fatal("empty candidate list accepted")
	}
	noPatients := p
	noPatients.Patients = 0
	if _, err := h.Tune(noPatients, grid); err == nil {
		t.Fatal("a dataset without patients accepted")
	}
}

func TestCandidateString(t *testing.T) {
	c := Candidate{ExecutorsPerNode: 2, CoresPerExecutor: 3, MemPerExecutorGiB: 10}
	if c.String() != "2/node x 3 cores x 10 GiB" {
		t.Fatalf("String() = %q", c.String())
	}
}
