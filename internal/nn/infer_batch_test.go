package nn

import (
	"math/rand"
	"testing"

	"saccs/internal/mat"
)

// The batched kernels must be bit-identical to their serial twins per
// sequence: batched review extraction (core.Extractor.ExtractTexts) leans on
// that identity to keep batched and solo decodes indistinguishable. These tests pack
// adversarial length mixes (empty, single-token, long) and compare every
// output element for exact equality.

var batchLenMixes = [][]int{
	{3},
	{1, 1},
	{5, 3},
	{0, 4},
	{4, 0, 1, 7},
	{13, 13, 13, 13},
	{2, 9, 1, 0, 6, 3, 12, 5},
}

// packSeqs lays out sequences one token per row and returns the serial-view
// slices alongside the packed matrix.
func packSeqs(rng *rand.Rand, lens []int, dim int) (*mat.Mat, []int, [][]mat.Vec) {
	total := 0
	starts := make([]int, len(lens))
	for s, n := range lens {
		starts[s] = total
		total += n
	}
	x := mat.NewMat(total, dim)
	seqs := make([][]mat.Vec, len(lens))
	for s, n := range lens {
		seqs[s] = make([]mat.Vec, n)
		for t := 0; t < n; t++ {
			row := x.Row(starts[s] + t)
			copy(row, randVec(rng, dim))
			seqs[s][t] = row
		}
	}
	return x, starts, seqs
}

func requireRowsEqual(t *testing.T, name string, s, seq int, want mat.Vec, got mat.Vec) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: seq %d token %d: length %d want %d", name, s, seq, len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("%s: seq %d token %d elem %d = %v, want %v (bit-exact)", name, s, seq, i, got[i], w)
		}
	}
}

func TestLinearInferBatchMatchesInferInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][2]int{{64, 128}, {64, 5}, {31, 7}, {1, 1}} {
		l := NewLinear(rng, "t", dims[0], dims[1])
		for _, lens := range batchLenMixes {
			x, _, _ := packSeqs(rng, lens, dims[0])
			var a Arena
			y := l.InferBatch(x, &a)
			want := mat.NewVec(dims[1])
			for r := 0; r < x.Rows; r++ {
				l.InferInto(want, x.Row(r))
				requireRowsEqual(t, "Linear.InferBatch", 0, r, want, y.Row(r))
			}
		}
	}
}

func TestLSTMInferBatchMatchesInferSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := NewLSTM(rng, "t", 16, 8)
	for _, lens := range batchLenMixes {
		x, starts, seqs := packSeqs(rng, lens, 16)
		var a Arena
		got := l.InferBatch(x, starts, lens, &a)
		for s, seq := range seqs {
			var sa Arena
			want := l.InferSeq(seq, &sa)
			for tt := range want {
				requireRowsEqual(t, "LSTM.InferBatch", s, tt, want[tt], got.Row(starts[s]+tt))
			}
		}
	}
}

func TestBiLSTMInferBatchMatchesInferSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := NewBiLSTM(rng, "t", 16, 8)
	for _, lens := range batchLenMixes {
		x, starts, seqs := packSeqs(rng, lens, 16)
		var a Arena
		got := b.InferBatch(x, starts, lens, &a)
		for s, seq := range seqs {
			var sa Arena
			want := b.InferSeq(seq, &sa)
			for tt := range want {
				requireRowsEqual(t, "BiLSTM.InferBatch", s, tt, want[tt], got.Row(starts[s]+tt))
			}
		}
	}
}

func TestArenaMat(t *testing.T) {
	var a Arena
	m := a.Mat(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("Mat(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i := range m.Data {
		m.Data[i] = 7
	}
	m2 := a.Mat(2, 2)
	for _, x := range m2.Data {
		if x != 0 {
			t.Fatal("arena Mat not zeroed")
		}
	}
	a.Reset()
	m3 := a.Mat(1, 1)
	for _, x := range m3.Data {
		if x != 0 {
			t.Fatal("arena Mat not zeroed after Reset")
		}
	}
}
