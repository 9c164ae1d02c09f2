package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"sparkscore/internal/rng"
)

// panelEdge are the values a seeded panel fixture mixes into its normal
// draws: both zeros and magnitudes whose products overflow, underflow and
// cancel, so a reordered or fused sum would show.
var panelEdge = []float64{0, math.Copysign(0, -1), 1e300, -1e300, 1e-300, -1e-300}

// panelFixture fills a rows × patients UBlock and a patients × width panel
// with standard normals from the seed, an edgeShare of the entries replaced
// by draws from panelEdge.
func panelFixture(seed uint64, patients, rows, width int, edgeShare float64) (UBlock, []float64) {
	r := rng.New(seed)
	draw := func(dst []float64) {
		for i := range dst {
			if r.Bernoulli(edgeShare) {
				dst[i] = panelEdge[r.Intn(len(panelEdge))]
			} else {
				dst[i] = r.Normal()
			}
		}
	}
	ub := UBlock{Patients: patients, SNPs: make([]int32, rows), U: make([]float64, rows*patients)}
	z := make([]float64, patients*width)
	draw(ub.U)
	draw(z)
	return ub, z
}

// sameBits is the contract's equality: the same bit pattern, so −0 differs
// from +0, except that any NaN equals any NaN (Inf − Inf arises over the
// 1e±300 entries, and which operand's payload a NaN·NaN product keeps is the
// instruction selector's choice, not the summation order's).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkPanelColumns pins every column of PanelScores to the scalar
// MonteCarloScore over the same row and the panel's k-th column, bitwise.
func checkPanelColumns(t *testing.T, ub UBlock, z []float64, width int) {
	t.Helper()
	got := ub.PanelScores(z, width, nil)
	if len(got) != ub.Rows()*width {
		t.Fatalf("%d scores for %d rows x %d replicates", len(got), ub.Rows(), width)
	}
	col := make([]float64, ub.Patients)
	for k := 0; k < width; k++ {
		for i := range col {
			col[i] = z[i*width+k]
		}
		single := ub.Scores(col, nil)
		for r := 0; r < ub.Rows(); r++ {
			want := MonteCarloScore(ub.Row(r), col)
			if !sameBits(got[r*width+k], want) {
				t.Fatalf("patients=%d rows=%d width=%d: panel[%d][%d] = %v, scalar %v",
					ub.Patients, ub.Rows(), width, r, k, got[r*width+k], want)
			}
			if !sameBits(single[r], want) {
				t.Fatalf("patients=%d width=%d: Scores(column %d)[%d] = %v, scalar %v",
					ub.Patients, width, k, r, single[r], want)
			}
		}
	}
}

// TestUBlockPanelMatchesScalarBitwise is the panel kernel's contract: whole
// tiles, the tail columns and the width-1 case all reproduce the scalar loop
// bit for bit, at patient counts around the unroll and row counts including
// the empty block.
func TestUBlockPanelMatchesScalarBitwise(t *testing.T) {
	for _, patients := range []int{1, 3, 4, 7, 500} {
		for _, rows := range []int{0, 1, 256} {
			for _, width := range []int{1, 7, 8, 9, 16, 67} {
				ub, z := panelFixture(uint64(patients*1000+rows*10+width), patients, rows, width, 0.25)
				checkPanelColumns(t, ub, z, width)
			}
		}
	}
}

func TestUBlockPanelRejectsWrongPanelLength(t *testing.T) {
	ub, z := panelFixture(1, 5, 2, 3, 0)
	for name, call := range map[string]func(){
		"short panel": func() { ub.PanelScores(z[:len(z)-1], 3, nil) },
		"zero width":  func() { ub.PanelScores(nil, 0, nil) },
		"Scores":      func() { ub.Scores(z[:4], nil) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "stats: ") || !strings.Contains(msg, "Monte Carlo weights for 5 patients") {
					t.Errorf("%s: panic %q, want the Monte Carlo weights message", name, msg)
				}
			}()
			call()
		}()
	}
}

// FuzzUBlockPanel is the same bitwise pin over fuzzer-chosen shapes and raw
// float bit patterns (NaNs and infinities included): the first three bytes
// pick patients, rows and width, the rest fills U then Z eight bytes a value,
// cycling.
func FuzzUBlockPanel(f *testing.F) {
	f.Add([]byte{3, 2, 9, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 4 {
			return
		}
		patients, rows, width := int(raw[0])%40+1, int(raw[1])%6, int(raw[2])%20+1
		raw = raw[3:]
		next := func(i int) float64 {
			var b [8]byte
			for j := range b {
				b[j] = raw[(8*i+j)%len(raw)]
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		ub := UBlock{Patients: patients, SNPs: make([]int32, rows), U: make([]float64, rows*patients)}
		z := make([]float64, patients*width)
		for i := range ub.U {
			ub.U[i] = next(i)
		}
		for i := range z {
			z[i] = next(len(ub.U) + i)
		}
		checkPanelColumns(t, ub, z, width)
	})
}

// BenchmarkUBlockPanel measures the Monte Carlo kernel where it really runs:
// streaming a U larger than the last-level cache's per-core share (80 blocks
// of 256 rows × 500 patients, 82 MB — mc_cached's shape), so width 1 pays
// DRAM bandwidth as a cached-read replicate does, and reports ns per
// (element, replicate). The widths are the b = 1 of a served Replicate, the
// b = 16 where the tile becomes compute-bound, and core.mcBatch = 64, chosen
// from this benchmark as past the knee.
func BenchmarkUBlockPanel(b *testing.B) {
	const patients, rows, blocks = 500, 256, 80
	ublocks := make([]UBlock, blocks)
	for i := range ublocks {
		ublocks[i], _ = panelFixture(uint64(i), patients, rows, 1, 0)
	}
	for _, width := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("b=%d", width), func(b *testing.B) {
			_, z := panelFixture(99, patients, 0, width, 0)
			var out []float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range ublocks {
					out = ublocks[j].PanelScores(z, width, out)
				}
			}
			elems := float64(b.N) * blocks * rows * patients * float64(width)
			b.ReportMetric(b.Elapsed().Seconds()*1e9/elems, "ns/elem-replicate")
		})
	}
}
