package nn

import (
	"math"
	"sync/atomic"

	"saccs/internal/mat"
)

// Batched inference kernels: batched review extraction packs several token
// sequences into one matrix (one row per token, sequences concatenated,
// addressed by starts/lens) and runs each layer as a GEMM over
// all rows at once instead of a MulVec per token. The payoff is kernel
// efficiency — mat.MatMulInto's blocked/vectorized path — not different
// arithmetic: every kernel here performs its serial twin's float operations
// in the same per-element order, so batched results are bit-identical to
// InferSeq/InferInto per sequence. The differential oracle
// oracle/extract-batch-live and the tagger batch tests pin this.
//
// Weights are packed (transposed Out×In → In×Out) so the GEMM can stream B
// rows in k-major order. Packing copies values without reordering any sum —
// exactness is untouched — and the packed copy is cached on the layer, keyed
// by the parameter's mutation version (Param.NoteMutated): a retrain bumps
// the version after its last weight write, so a stale or torn pack can never
// outlive the training step that obsoleted it. Decodes that overlap a
// retrain may pack mid-step weights, the same semantics the serial path has
// when reading mutating weights — their results are discarded by the
// generation check upstream (internal/extcache keying).

// packSlot caches one transposed weight matrix against a Param version.
type packSlot struct {
	p atomic.Pointer[packedWeight]
}

type packedWeight struct {
	ver uint64
	m   *mat.Mat
}

// packedTransposed returns pᵀ (In×Out), rebuilding the cached copy when the
// parameter's version moved. The version is read before the copy: if a
// concurrent mutation tears the copy, the mutator's trailing NoteMutated
// leaves the cache keyed to a version that no longer matches, so the next
// call rebuilds from settled weights.
func packedTransposed(slot *packSlot, p *Param) *mat.Mat {
	v := p.Version()
	if c := slot.p.Load(); c != nil && c.ver == v {
		return c.m
	}
	w := p.W
	t := mat.NewMat(w.Cols, w.Rows)
	const tb = 16 // block the transpose so reads and writes both stay cache-local
	for ib := 0; ib < w.Rows; ib += tb {
		ie := min(ib+tb, w.Rows)
		for jb := 0; jb < w.Cols; jb += tb {
			je := min(jb+tb, w.Cols)
			for i := ib; i < ie; i++ {
				for j := jb; j < je; j++ {
					t.Data[j*w.Rows+i] = w.Data[i*w.Cols+j]
				}
			}
		}
	}
	slot.p.Store(&packedWeight{ver: v, m: t})
	return t
}

// InferBatchInto computes y = x·Wᵀ + b row-wise into y (rows×Out), where x
// is rows×In. Row i of y is bit-identical to InferInto(y_i, x_i): the GEMM
// accumulates each output element's products in ascending k order, exactly
// like MulVec, and the bias adds after the full dot, exactly like InferInto.
func (l *Linear) InferBatchInto(y, x *mat.Mat) {
	wp := packedTransposed(&l.pack, l.Weight)
	mat.MatMulInto(y, x, wp)
	mat.AddRows(y, l.Bias.W.Row(0))
}

// InferBatch applies the layer to every row of x, arena-backed.
func (l *Linear) InferBatch(x *mat.Mat, a *Arena) *mat.Mat {
	y := a.MatRaw(x.Rows, l.Out)
	l.InferBatchInto(y, x)
	return y
}

// InferBatch runs the LSTM over several packed sequences at once: xs holds
// one token per row with sequence s occupying rows [starts[s],
// starts[s]+lens[s]), and the returned matrix holds the hidden states in the
// same layout. The input projection Wx·x of every token in the batch is one
// GEMM; each time step then gathers the live sequences' hidden states and
// runs the recurrent projection Wh·h as one small GEMM. Per sequence the
// recursion — gate order, (Wx·x + Wh·h) + b association, c/h updates — is
// InferSeq's exactly, so row starts[s]+t is bit-identical to InferSeq's
// hs[t] for that sequence alone.
func (l *LSTM) InferBatch(xs *mat.Mat, starts, lens []int, a *Arena) *mat.Mat {
	H := l.Hidden
	out := a.MatRaw(xs.Rows, H)
	nSeq := len(lens)
	maxLen := 0
	for _, n := range lens {
		if n > maxLen {
			maxLen = n
		}
	}
	if maxLen == 0 {
		return out
	}

	wxp := packedTransposed(&l.packWx, l.Wx) // In×4H
	whp := packedTransposed(&l.packWh, l.Wh) // H×4H
	zx := a.MatRaw(xs.Rows, 4*H)
	mat.MatMulInto(zx, xs, wxp)
	bias := l.B.W.Row(0)

	h := a.Mat(nSeq, H) // current hidden state per sequence (zero-initialized)
	c := a.Mat(nSeq, H) // current cell state per sequence
	hbuf := a.MatRaw(nSeq, H)
	zh := a.MatRaw(nSeq, 4*H)
	act := a.Ints(nSeq)

	for t := 0; t < maxLen; t++ {
		nAct := 0
		for s := 0; s < nSeq; s++ {
			if lens[s] > t {
				act[nAct] = s
				nAct++
			}
		}
		// Gather live hidden states and run the recurrent GEMM over them.
		// Shrinking Rows makes the kernels see only the packed prefix; the
		// backing data stays full-sized for the next step.
		hbuf.Rows, zh.Rows = nAct, nAct
		for p := 0; p < nAct; p++ {
			copy(hbuf.Row(p), h.Row(act[p]))
		}
		mat.MatMulInto(zh, hbuf, whp)
		for p := 0; p < nAct; p++ {
			s := act[p]
			zxr := zx.Row(starts[s] + t)
			zhr := zh.Row(p)
			cr := c.Row(s)
			hr := h.Row(s)
			for j := 0; j < H; j++ {
				ig := Sigmoid((zxr[j] + zhr[j]) + bias[j])
				fg := Sigmoid((zxr[H+j] + zhr[H+j]) + bias[H+j])
				gg := math.Tanh((zxr[2*H+j] + zhr[2*H+j]) + bias[2*H+j])
				og := Sigmoid((zxr[3*H+j] + zhr[3*H+j]) + bias[3*H+j])
				cr[j] = fg*cr[j] + ig*gg
				hr[j] = og * math.Tanh(cr[j])
			}
			copy(out.Row(starts[s]+t), hr)
		}
	}
	return out
}

// InferBatch runs the bidirectional LSTM over packed sequences (see
// LSTM.InferBatch for the layout) and returns per-token [fwd_t ; bwd_t]
// concatenations, row starts[s]+t matching InferSeq's out[t] bit for bit.
func (b *BiLSTM) InferBatch(xs *mat.Mat, starts, lens []int, a *Arena) *mat.Mat {
	fh := b.Fwd.InferBatch(xs, starts, lens, a)
	rev := a.MatRaw(xs.Rows, xs.Cols)
	for s, n := range lens {
		base := starts[s]
		for i := 0; i < n; i++ {
			copy(rev.Row(base+n-1-i), xs.Row(base+i))
		}
	}
	bhRev := b.Bwd.InferBatch(rev, starts, lens, a)
	H := b.Fwd.Hidden
	out := a.MatRaw(xs.Rows, b.OutDim())
	for s, n := range lens {
		base := starts[s]
		for t := 0; t < n; t++ {
			v := out.Row(base + t)
			copy(v[:H], fh.Row(base+t))
			copy(v[H:], bhRev.Row(base+n-1-t))
		}
	}
	return out
}
