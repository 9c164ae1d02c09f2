package data

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleDataset(withCovariates bool) *Dataset {
	d := &Dataset{
		Genotypes: sampleMatrix(),
		Phenotype: &Phenotype{Y: []float64{1, 2, 3, 4}, Event: []uint8{1, 1, 0, 1}},
		Weights:   Weights{1, 0.5, 2},
		SNPSets:   SNPSets{{Name: "g", SNPs: []int{0, 1, 2}}},
	}
	if withCovariates {
		d.Covariates = &Covariates{Rows: [][]float64{{1, 60}, {0, 45}, {1, 71}, {0, 38}}}
	}
	return d
}

// writeDir writes ds as a dataset directory on local disk.
func writeDir(t *testing.T, ds *Dataset) string {
	t.Helper()
	dir := t.TempDir()
	err := WriteDataset(ds, func(name string) (io.WriteCloser, error) {
		return os.Create(filepath.Join(dir, name))
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestDatasetDirRoundTrip(t *testing.T) {
	for _, withCov := range []bool{false, true} {
		want := sampleDataset(withCov)
		dir := writeDir(t, want)
		if _, err := os.Stat(filepath.Join(dir, CovariatesFile)); (err == nil) != withCov {
			t.Fatalf("covariates=%v: stat %s: %v", withCov, CovariatesFile, err)
		}
		got, err := ReadDataset(os.DirFS(dir))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("covariates=%v: read back %+v, wrote %+v", withCov, got, want)
		}
	}
}

// unreadable fails every Open of one name with a permission error.
type unreadable struct {
	fs.FS
	name string
}

func (u unreadable) Open(name string) (fs.File, error) {
	if name == u.name {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrPermission}
	}
	return u.FS.Open(name)
}

func TestReadDatasetErrors(t *testing.T) {
	dir := os.DirFS(writeDir(t, sampleDataset(true)))
	// Only a covariates file that is not there means "unadjusted": one that
	// is there and cannot be opened must not silently drop the adjustment.
	if _, err := ReadDataset(unreadable{dir, CovariatesFile}); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("unreadable covariates: err = %v, want the permission error", err)
	}

	bare := writeDir(t, sampleDataset(false))
	if err := os.Remove(filepath.Join(bare, WeightsFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDataset(os.DirFS(bare)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing weights: err = %v, want not-exist", err)
	}
	if err := os.WriteFile(filepath.Join(bare, WeightsFile), []byte("0\tx\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDataset(os.DirFS(bare)); err == nil || !strings.Contains(err.Error(), WeightsFile) {
		t.Fatalf("malformed weights: err = %v, want a parse error naming the file", err)
	}
}

func TestWriteDatasetErrors(t *testing.T) {
	bad := sampleDataset(false)
	bad.Weights = bad.Weights[:1]
	created := 0
	create := func(string) (io.WriteCloser, error) { created++; return nil, errors.New("disk full") }
	if err := WriteDataset(bad, create); err == nil || created != 0 {
		t.Fatalf("invalid dataset: err = %v after creating %d files, want a validation error before any", err, created)
	}
	if err := WriteDataset(sampleDataset(false), create); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("create failure: err = %v, want it passed through", err)
	}
}
