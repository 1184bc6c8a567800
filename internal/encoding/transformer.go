package encoding

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gmm"
	"repro/internal/tensor"
)

// SpanType distinguishes the two activation regimes of encoded columns.
type SpanType int

// Span types.
const (
	// SpanScalar is a single tanh-activated column (the mode offset alpha).
	SpanScalar SpanType = iota + 1
	// SpanOneHot is a softmax-activated group of indicator columns.
	SpanOneHot
)

// Span describes one contiguous group of encoded columns.
type Span struct {
	// Column is the index of the source column in the raw table.
	Column int
	// Start is the first encoded column of the span; Width its length.
	Start, Width int
	// Type selects the generator output activation for the span.
	Type SpanType
	// Categorical marks one-hot spans that encode a raw categorical column;
	// only these participate in conditional-vector construction.
	Categorical bool
}

// End returns the exclusive end offset of the span.
func (s Span) End() int { return s.Start + s.Width }

// colEncoder is the fitted per-column encoding state.
type colEncoder struct {
	spec ColumnSpec
	// mixture is set for continuous and mixed columns.
	mixture *gmm.Model
	// post is mixture's posterior with its per-component logs taken once;
	// buildLayout derives it, so fitted and decoded transformers both have
	// it. It is read-only: the posteriors a mode draw reads belong to the
	// Transform call (see chunkState), so transformers stay shareable.
	post gmm.Posterior
	// specialIdx maps a mixed column's special values to their slot.
	specialIdx map[float64]int
}

// width returns the number of encoded columns this column occupies.
func (c *colEncoder) width() int {
	switch c.spec.Kind {
	case KindCategorical:
		return len(c.spec.Categories)
	case KindContinuous:
		return 1 + c.mixture.K()
	case KindMixed:
		return 1 + len(c.spec.SpecialValues) + c.mixture.K()
	default:
		panic(fmt.Sprintf("encoding: invalid kind %d", int(c.spec.Kind)))
	}
}

// Transformer converts raw tables to the GAN representation and back. Fit it
// once per party on that party's local columns.
type Transformer struct {
	specs []ColumnSpec
	cols  []colEncoder
	spans []Span
	width int
}

// FitTransformer learns per-column encoders from the table. GMM fitting for
// continuous and mixed columns uses cfg; pass gmm.DefaultConfig() for the
// CTGAN-compatible setup.
func FitTransformer(rng *rand.Rand, t *Table, cfg gmm.Config) (*Transformer, error) {
	tr := &Transformer{specs: t.Specs, cols: make([]colEncoder, len(t.Specs))}
	for j := range t.Specs {
		spec := t.Specs[j]
		enc := colEncoder{spec: spec}
		switch spec.Kind {
		case KindCategorical:
			// nothing to fit
		case KindContinuous:
			m, err := gmm.Fit(rng, t.Column(j), cfg)
			if err != nil {
				return nil, fmt.Errorf("encoding: fitting column %q: %w", spec.Name, err)
			}
			enc.mixture = m
		case KindMixed:
			enc.specialIdx = make(map[float64]int, len(spec.SpecialValues))
			for i, v := range spec.SpecialValues {
				enc.specialIdx[v] = i
			}
			cont := make([]float64, 0, t.Rows())
			for _, v := range t.Column(j) {
				if _, special := enc.specialIdx[v]; !special {
					cont = append(cont, v)
				}
			}
			if len(cont) == 0 {
				// Degenerate: every value is special; model the continuous
				// part as a point mass at zero so widths stay consistent.
				cont = []float64{0}
			}
			m, err := gmm.Fit(rng, cont, cfg)
			if err != nil {
				return nil, fmt.Errorf("encoding: fitting mixed column %q: %w", spec.Name, err)
			}
			enc.mixture = m
		default:
			return nil, fmt.Errorf("encoding: column %q has invalid kind", spec.Name)
		}
		tr.cols[j] = enc
	}
	tr.buildLayout()
	return tr, nil
}

// buildLayout derives the span list, the total width and each mixture's
// posterior constants from the fitted per-column encoders. It is shared by
// FitTransformer and the deserialization path, so a transformer decoded
// from a gtvcol metadata blob lays out and encodes its columns exactly like
// the one that was fitted.
func (tr *Transformer) buildLayout() {
	tr.spans = tr.spans[:0]
	offset := 0
	for j := range tr.cols {
		enc := &tr.cols[j]
		if enc.mixture != nil {
			enc.post = enc.mixture.Posterior()
		}
		switch enc.spec.Kind {
		case KindCategorical:
			tr.spans = append(tr.spans, Span{
				Column: j, Start: offset, Width: enc.spec.NumCategories(),
				Type: SpanOneHot, Categorical: true,
			})
		case KindContinuous:
			tr.spans = append(tr.spans,
				Span{Column: j, Start: offset, Width: 1, Type: SpanScalar},
				Span{Column: j, Start: offset + 1, Width: enc.mixture.K(), Type: SpanOneHot},
			)
		case KindMixed:
			tr.spans = append(tr.spans,
				Span{Column: j, Start: offset, Width: 1, Type: SpanScalar},
				Span{Column: j, Start: offset + 1, Width: len(enc.spec.SpecialValues) + enc.mixture.K(), Type: SpanOneHot},
			)
		}
		offset += enc.width()
	}
	tr.width = offset
}

// Width returns the total encoded width.
func (tr *Transformer) Width() int { return tr.width }

// Spans returns the encoded column layout. The returned slice must not be
// modified.
func (tr *Transformer) Spans() []Span { return tr.spans }

// CategoricalSpans returns only the spans of raw categorical columns, the
// ones eligible for conditional vectors.
func (tr *Transformer) CategoricalSpans() []Span {
	out := make([]Span, 0, len(tr.spans))
	for _, s := range tr.spans {
		if s.Categorical {
			out = append(out, s)
		}
	}
	return out
}

// Transform encodes the table into one in-memory matrix: TransformTo's
// span-coded rows, each expanded to its one-hot form. rng drives the
// posterior mode sampling of mode-specific normalization (CTGAN samples the
// mode rather than taking the argmax).
//
//shape:out(R,W)
//lint:ignore deadcode bench/_gtvbench (ROADMAP 1(i))
func (tr *Transformer) Transform(rng *rand.Rand, t *Table) (*tensor.Dense, error) {
	out := tensor.New(t.Rows(), tr.width)
	i := 0
	err := tr.TransformTo(rng, t, func(code []float64) error {
		// The encoder's codes are in range by construction.
		expandRow(tr.spans, code, out.RawRow(i))
		i++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TransformTo streams the table's span-coded rows through emit in row order
// without ever materializing the encoded matrix; the row slice is reused,
// so emit must copy what it keeps. A span-coded row holds one value per
// span, in span order: a scalar span's value, and for a one-hot span the
// index of its hot column. expandRow turns it into the encoded row.
// OpenOrEncode feeds a coldata.Writer this way. A chunk at a time, it first
// computes the posteriors of every continuous cell, a column at a time
// (chunkState.fill), then draws the modes row by row — one rng draw per
// continuous or mixed-continuous cell in row-major order, the order the
// per-cell loop drew in, from posteriors with the per-cell loop's bits.
func (tr *Transformer) TransformTo(rng *rand.Rand, t *Table, emit func(code []float64) error) error {
	if len(t.Specs) != len(tr.specs) {
		return fmt.Errorf("encoding: table has %d columns, transformer fitted on %d", len(t.Specs), len(tr.specs))
	}
	buf := make([]float64, len(tr.spans))
	st := tr.newChunkState()
	rows := make([][]float64, 0, chunkRows)
	for first := 0; first < t.Rows(); first += chunkRows {
		rows = rows[:0]
		for i := first; i < min(first+chunkRows, t.Rows()); i++ {
			rows = append(rows, t.Data.RawRow(i))
		}
		st.fill(tr, rows)
		for r, row := range rows {
			if err := tr.encodeRow(rng, first+r, r, row, buf, st); err != nil {
				return err
			}
			if err := emit(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// chunkRows is the most rows TransformTo encodes at a time: few enough that
// the posteriors of one chunk stay in cache between the pass that computes
// them and the pass that draws modes from them.
const chunkRows = 256

// expandRow writes the encoded row that the span-coded row code stands for
// into dst, which must hold the spans' total width and be zero: a scalar
// span's value at its Start, a one-hot span's 1.0 at its Start plus its
// code. It returns the first span whose code is not an integer in
// [0, Width) (as the encoder writes it: −0 is not 0), or −1; it never
// writes outside a span.
func expandRow(spans []Span, code, dst []float64) int {
	for s, sp := range spans {
		c := code[s]
		if sp.Type == SpanScalar {
			dst[sp.Start] = c
			continue
		}
		// A NaN, an infinity, a fraction or −0 fails the round trip
		// through int: the encoder writes a code's own bits.
		h := int(c)
		if h < 0 || h >= sp.Width || math.Float64bits(float64(h)) != math.Float64bits(c) {
			return s
		}
		dst[sp.Start+h] = 1
	}
	return -1
}

// chunkState holds one chunk's posteriors for an encode call. Per column j
// with a mixture: resp[j] holds, K apiece and in row order, the posteriors of
// the chunk's cells that have one (a mixed column's special values have
// none), next[j] is the first one no draw has read yet, and for a mixed
// column slot[j][r] is row r's special-value slot, or −1 where the value is
// continuous.
type chunkState struct {
	xs   []float64
	resp [][]float64
	next []int
	slot [][]int
}

func (tr *Transformer) newChunkState() *chunkState {
	st := &chunkState{
		xs:   make([]float64, 0, chunkRows),
		resp: make([][]float64, len(tr.cols)),
		next: make([]int, len(tr.cols)),
		slot: make([][]int, len(tr.cols)),
	}
	for j := range tr.cols {
		enc := &tr.cols[j]
		if enc.mixture != nil {
			st.resp[j] = make([]float64, chunkRows*enc.mixture.K())
		}
		if enc.spec.Kind == KindMixed {
			st.slot[j] = make([]int, chunkRows)
		}
	}
	return st
}

// fill computes the posteriors of the chunk's continuous cells, one
// Posterior.Block call per column.
func (st *chunkState) fill(tr *Transformer, rows [][]float64) {
	for j := range tr.cols {
		enc := &tr.cols[j]
		if enc.mixture == nil {
			continue
		}
		xs := st.xs[:0]
		for r, row := range rows {
			v := row[j]
			if enc.spec.Kind == KindMixed {
				if slot, special := enc.specialIdx[v]; special {
					st.slot[j][r] = slot
					continue
				}
				st.slot[j][r] = -1
			}
			xs = append(xs, v)
		}
		enc.post.Block(xs, st.resp[j])
		st.next[j] = 0
	}
}

// drawMode draws column j's mode for its next continuous cell.
func (st *chunkState) drawMode(rng *rand.Rand, j, k int) int {
	c := st.next[j]
	st.next[j]++
	return gmm.DrawMode(rng, st.resp[j][c*k:c*k+k])
}

// encodeRow writes the span-coded form of row i, the chunk's row r, into
// dst (one value per span), drawing each continuous cell's mode from st. A
// continuous cell that normalizes to a non-finite value is an error naming
// its column.
func (tr *Transformer) encodeRow(rng *rand.Rand, i, r int, row, dst []float64, st *chunkState) error {
	s := 0
	for j := range tr.cols {
		enc := &tr.cols[j]
		v := row[j]
		switch enc.spec.Kind {
		case KindCategorical:
			k := int(v)
			if k < 0 || k >= enc.spec.NumCategories() {
				return fmt.Errorf("encoding: row %d column %q invalid category %v", i, enc.spec.Name, v)
			}
			dst[s] = float64(k)
			s++
			continue
		case KindContinuous:
			mode := st.drawMode(rng, j, enc.mixture.K())
			dst[s] = enc.mixture.Normalize(v, mode)
			dst[s+1] = float64(mode)
		case KindMixed:
			if slot := st.slot[j][r]; slot >= 0 {
				dst[s] = 0
				dst[s+1] = float64(slot)
			} else {
				mode := st.drawMode(rng, j, enc.mixture.K())
				dst[s] = enc.mixture.Normalize(v, mode)
				dst[s+1] = float64(len(enc.spec.SpecialValues) + mode)
			}
		}
		// A finite value can still normalize past float64 (a mixture fitted
		// to values whose squares overflow): refuse it here, by column,
		// rather than let a trainer meet the NaN.
		if a := dst[s]; math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("encoding: row %d column %q: value %v normalizes to %v", i, enc.spec.Name, v, a)
		}
		s += 2
	}
	return nil
}

// Inverse decodes an encoded (or generated) matrix back to a raw table.
// One-hot groups are decoded by argmax; scalar offsets are clipped to
// [-1, 1] before denormalization.
//
//shape:in(R,W)
func (tr *Transformer) Inverse(enc *tensor.Dense) (*Table, error) {
	if enc.Cols() != tr.width {
		return nil, fmt.Errorf("encoding: matrix width %d, transformer width %d", enc.Cols(), tr.width)
	}
	out := tensor.New(enc.Rows(), len(tr.specs))
	for i := 0; i < enc.Rows(); i++ {
		src := enc.RawRow(i)
		dst := out.RawRow(i)
		off := 0
		for j := range tr.cols {
			e := &tr.cols[j]
			switch e.spec.Kind {
			case KindCategorical:
				dst[j] = float64(argmax(src[off : off+e.spec.NumCategories()]))
			case KindContinuous:
				alpha := src[off]
				mode := argmax(src[off+1 : off+1+e.mixture.K()])
				dst[j] = e.mixture.Denormalize(alpha, mode)
			case KindMixed:
				nSpecial := len(e.spec.SpecialValues)
				slot := argmax(src[off+1 : off+1+nSpecial+e.mixture.K()])
				if slot < nSpecial {
					dst[j] = e.spec.SpecialValues[slot]
				} else {
					dst[j] = e.mixture.Denormalize(src[off], slot-nSpecial)
				}
			}
			off += e.width()
		}
	}
	return &Table{Specs: tr.specs, Data: out}, nil
}

// CategoryFrequencies returns, for categorical column j, the frequency of
// each category in the table. It is used by conditional-vector sampling.
// Frequencies are whole-column aggregates, the disclosure granularity the
// paper's conditional sampling already assumes.
//
//privacy:sanitizer per-column category frequencies (aggregate)
func CategoryFrequencies(t *Table, j int) ([]float64, error) {
	if j < 0 || j >= len(t.Specs) || t.Specs[j].Kind != KindCategorical {
		return nil, fmt.Errorf("encoding: column %d is not categorical", j)
	}
	counts := make([]int, t.Specs[j].NumCategories())
	for _, v := range t.Column(j) {
		counts[int(v)]++
	}
	return Frequencies(counts, t.Rows()), nil
}

// Frequencies turns per-category row counts of a rows-row table into
// frequencies, float64(count) / float64(rows) each (all zero for an empty
// table). Both conversions are exact below 2^53, so callers that count by
// other means get CategoryFrequencies' bits.
//
//privacy:sanitizer per-column category frequencies (aggregate)
func Frequencies(counts []int, rows int) []float64 {
	freq := make([]float64, len(counts))
	for k, c := range counts {
		freq[k] = float64(c)
		if rows > 0 {
			freq[k] /= float64(rows)
		}
	}
	return freq
}

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
