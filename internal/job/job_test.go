package job

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sparkscore/internal/cluster"
	"sparkscore/internal/core"
	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/rdd"
	"sparkscore/internal/rng"
)

// parse declares the shared flags on a fresh flag set and parses args.
func parse(t *testing.T, args ...string) *Run {
	t.Helper()
	fs := flag.NewFlagSet("job", flag.ContinueOnError)
	r := Flags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parsing %q: %v", args, err)
	}
	return r
}

// TestCheckEQTLFlags: a top-K below 1 is refused naming the flag —
// assoc.Config reads 0 as its default of 100 pairs, so -eqtl-top 0 used to
// keep 100 — and the default and a top-K of 1 are accepted.
func TestCheckEQTLFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, ""},
		{[]string{"-eqtl-top", "1"}, ""},
		{[]string{"-eqtl-top", "0"}, "-eqtl-top 0: must be at least 1"},
		{[]string{"-eqtl-top", "-3"}, "-eqtl-top -3: must be at least 1"},
	} {
		err := parse(t, tc.args...).Check()
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || err.Error() != tc.want) {
			t.Errorf("%q: Check() = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestFlagsBuildConfigAndOptions: the defaults describe the paper's cluster
// (six m3.2xlarge nodes, two 4-core 10 GiB containers each) and a Cox SKAT
// analysis, and every cluster and analysis flag reaches its field.
func TestFlagsBuildConfigAndOptions(t *testing.T) {
	r := parse(t)
	wantCluster := cluster.Config{Nodes: 6, Spec: cluster.M3TwoXLarge, ExecutorsPerNode: 2, CoresPerExecutor: 4, MemPerExecutorGiB: 10}
	if got := r.Config(); !reflect.DeepEqual(got, rdd.Config{Cluster: wantCluster, Seed: 1}) {
		t.Errorf("default Config() = %+v", got)
	}
	if got, want := r.Options(), (core.Options{Family: "cox", SetStatistic: "skat", Seed: 1}); !reflect.DeepEqual(got, want) {
		t.Errorf("default Options() = %+v, want %+v", got, want)
	}

	r = parse(t, "-nodes", "3", "-executors-per-node", "5", "-cores", "2", "-mem", "1.5",
		"-seed", "9", "-family", "binomial", "-set-stat", "burden")
	wantCluster = cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge, ExecutorsPerNode: 5, CoresPerExecutor: 2, MemPerExecutorGiB: 1.5}
	if got := r.Config(); !reflect.DeepEqual(got, rdd.Config{Cluster: wantCluster, Seed: 9}) {
		t.Errorf("Config() = %+v", got)
	}
	if got, want := r.Options(), (core.Options{Family: "binomial", SetStatistic: "burden", Seed: 9}); !reflect.DeepEqual(got, want) {
		t.Errorf("Options() = %+v, want %+v", got, want)
	}
}

// TestDatasetGeneratesOrReadsDir: without -dir, or with -generate beside it,
// the run generates the seed's dataset at the requested shape; with -dir
// alone it reads the directory, and a missing one is an error.
func TestDatasetGeneratesOrReadsDir(t *testing.T) {
	want, err := gen.Generate(gen.Config{Patients: 30, SNPs: 50, SNPSets: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	err = data.WriteDataset(want, func(name string) (io.WriteCloser, error) {
		return os.Create(filepath.Join(dir, name))
	})
	if err != nil {
		t.Fatal(err)
	}
	shape := []string{"-patients", "30", "-snps", "50", "-sets", "3", "-seed", "4"}
	for _, args := range [][]string{shape, append([]string{"-generate", "-dir", filepath.Join(dir, "absent")}, shape...), {"-dir", dir}} {
		got, err := parse(t, args...).Dataset()
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		if !reflect.DeepEqual(got.Genotypes, want.Genotypes) || !reflect.DeepEqual(got.SNPSets, want.SNPSets) || got.Phenotype.Patients() != 30 {
			t.Errorf("%q: dataset differs from the seed's", args)
		}
	}
	if _, err := parse(t, "-dir", filepath.Join(dir, "absent")).Dataset(); err == nil {
		t.Error("-dir of a missing directory: no error")
	}
}

// TestOpenEQTLStagesTheSeedsMatrix: the opener stages the seed's expression
// matrix at the path it is given, byte for byte WritePhenoMatrix's, and the
// engine it opens crosses those phenotypes with the staged genotypes and
// keeps -eqtl-top pairs.
func TestOpenEQTLStagesTheSeedsMatrix(t *testing.T) {
	r := parse(t, "-patients", "40", "-snps", "60", "-sets", "2", "-seed", "3", "-nodes", "2", "-eqtl-top", "7")
	ds, err := r.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := rdd.New(r.Config())
	if err != nil {
		t.Fatal(err)
	}
	paths, err := core.StageDataset(ctx, ds, "in")
	if err != nil {
		t.Fatal(err)
	}
	const matrix = "in/expr.txt"
	a, err := r.OpenEQTL(ctx, paths.Genotypes, matrix, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := data.WritePhenoMatrix(&want, gen.ExpressionMatrix(gen.Config{Patients: 40}, rng.New(3), 5)); err != nil {
		t.Fatal(err)
	}
	if got, err := ctx.FS().ReadAll(matrix); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("staged %d bytes (err %v), want WritePhenoMatrix's %d", len(got), err, want.Len())
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Phenos() != 5 || res.Tested != 60*5 || len(res.TopK) != 7 {
		t.Errorf("Phenos() = %d, Tested = %d, %d top pairs; want 5, 300, 7", a.Phenos(), res.Tested, len(res.TopK))
	}

	if _, err := r.OpenEQTL(ctx, "in/absent.txt", "in/expr2.txt", 40, 5); err == nil || !strings.Contains(err.Error(), "absent") {
		t.Errorf("opening over unstaged genotypes: err = %v", err)
	}
}
