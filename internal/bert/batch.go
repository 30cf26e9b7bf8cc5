package bert

import (
	"math"
	"time"

	"saccs/internal/mat"
	"saccs/internal/nn"
)

// Batched inference: several token sequences share one forward pass, packed
// one token per row (sequence s occupies rows [starts[s], starts[s]+lens[s])
// of every intermediate matrix). The linear projections of all sequences run
// as single GEMMs on mat.MatMulInto's fast path; attention, layer norm, GELU,
// and residuals are per-row or per-sequence and execute exactly the serial
// InferSeq arithmetic, so each sequence's hidden states are bit-identical to
// an individual inferArena call. Batched review extraction (internal/core)
// relies on that identity to keep batched and solo decodes
// indistinguishable.

// InferBatchTokensArena tokenizes and encodes several sequences in one
// arena-backed forward pass. It returns the packed hidden states (one row
// per token) plus the starts/lens addressing of the batch; sequences longer
// than MaxLen are truncated, exactly as in the serial path. Everything —
// including the returned matrix — is carved from the caller's arena. Writes
// no receiver state; safe for concurrent callers, each with its own arena.
func (m *Model) InferBatchTokensArena(seqs [][]string, a *nn.Arena) (*mat.Mat, []int, []int) {
	total := 0
	starts := a.Ints(len(seqs))
	lens := a.Ints(len(seqs))
	for s, seq := range seqs {
		n := len(seq)
		if n > m.Cfg.MaxLen {
			n = m.Cfg.MaxLen
		}
		starts[s], lens[s] = total, n
		total += n
	}
	if m.o != nil {
		defer m.encHist.ObserveSince(time.Now())
		m.encTokens.Add(int64(total))
	}
	x := a.MatRaw(total, m.Cfg.Dim)
	for s, seq := range seqs {
		base := starts[s]
		for i := 0; i < lens[s]; i++ {
			row := x.Row(base + i)
			m.TokEmb.LookupInto(row, m.Vocab.ID(seq[i]))
			row.Add(m.PosEmb.Table.W.Row(i))
		}
	}
	h := x
	for _, b := range m.Blocks {
		h = b.InferBatch(h, starts, lens, a)
	}
	return h, starts, lens
}

// InferBatch runs the encoder layer over packed sequences. Per row (token)
// the residual/norm/FFN arithmetic is InferSeq's exactly; the four linear
// projections run as batch GEMMs.
func (b *Block) InferBatch(xs *mat.Mat, starts, lens []int, a *nn.Arena) *mat.Mat {
	n := xs.Rows
	attnOut := b.Attn.InferBatch(xs, starts, lens, a)
	res1 := a.MatRaw(n, xs.Cols)
	for i := 0; i < n; i++ {
		v := res1.Row(i)
		copy(v, xs.Row(i))
		v.Add(attnOut.Row(i))
	}
	h1 := a.MatRaw(n, xs.Cols)
	for i := 0; i < n; i++ {
		b.LN1.ApplyInto(h1.Row(i), res1.Row(i))
	}
	ffPre := b.FF1.InferBatch(h1, a)
	ffAct := a.MatRaw(n, ffPre.Cols)
	for i := 0; i < n; i++ {
		nn.GELUInto(ffAct.Row(i), ffPre.Row(i))
	}
	ffnOuts := b.FF2.InferBatch(ffAct, a)
	res2 := a.MatRaw(n, xs.Cols)
	for i := 0; i < n; i++ {
		v := res2.Row(i)
		copy(v, h1.Row(i))
		v.Add(ffnOuts.Row(i))
	}
	out := a.MatRaw(n, xs.Cols)
	for i := 0; i < n; i++ {
		b.LN2.ApplyInto(out.Row(i), res2.Row(i))
	}
	return out
}

// InferBatch runs self-attention over packed sequences: the Q/K/V/O
// projections are batch GEMMs over every token row at once, while the
// score/softmax/weighted-sum loops run per sequence with the exact loop
// structure of InferSeq — including the softmax-zero skip — so attention
// output rows are bit-identical to the serial path's vectors.
func (m *MultiHeadAttention) InferBatch(xs *mat.Mat, starts, lens []int, a *nn.Arena) *mat.Mat {
	q := m.Wq.InferBatch(xs, a)
	k := m.Wk.InferBatch(xs, a)
	v := m.Wv.InferBatch(xs, a)
	scale := 1 / math.Sqrt(float64(m.HeadDim))
	headOut := a.Mat(xs.Rows, m.Dim)
	maxLen := 0
	for _, n := range lens {
		if n > maxLen {
			maxLen = n
		}
	}
	scores := a.Vec(maxLen)
	attn := a.Vec(maxLen)
	for s, n := range lens {
		base := starts[s]
		sc, at := scores[:n], attn[:n]
		for h := 0; h < m.Heads; h++ {
			lo := h * m.HeadDim
			hi := lo + m.HeadDim
			for i := 0; i < n; i++ {
				// The dot and weighted-sum loops below are Vec.Dot and
				// Vec.AddScaled inlined (same per-element order, ascending
				// k/j, zero-weight skip preserved) — the call and slicing
				// overhead of 2·n² tiny vector ops per head dominates at
				// HeadDim 8, so the serial kernels are spelled out here.
				qi := q.Row(base + i)[lo:hi:hi]
				// Two keys per iteration: each dot keeps Vec.Dot's ascending-d
				// accumulation (bit-identical), but the two independent sum
				// chains overlap in the FP pipeline where a single chain is
				// latency-bound.
				j := 0
				for ; j+1 < n; j += 2 {
					kj0 := k.Row(base + j)[lo:hi:hi]
					kj1 := k.Row(base + j + 1)[lo:hi:hi]
					var s0, s1 float64
					for d, qv := range qi {
						s0 += qv * kj0[d]
						s1 += qv * kj1[d]
					}
					sc[j] = s0 * scale
					sc[j+1] = s1 * scale
				}
				for ; j < n; j++ {
					kj := k.Row(base + j)[lo:hi:hi]
					var s float64
					for d, qv := range qi {
						s += qv * kj[d]
					}
					sc[j] = s * scale
				}
				mat.Softmax(at, sc)
				out := headOut.Row(base + i)[lo:hi:hi]
				for j := 0; j < n; j++ {
					aj := at[j]
					if aj == 0 {
						continue
					}
					vj := v.Row(base + j)[lo:hi:hi]
					for d := range out {
						out[d] += aj * vj[d]
					}
				}
			}
		}
	}
	return m.Wo.InferBatch(headOut, a)
}
