// Package condvec implements CTGAN's conditional-vector machinery
// ("training-by-sampling") for one party's categorical columns.
//
// A conditional vector (CV) is the concatenation of one one-hot block per
// categorical column; exactly one bit is set across the whole vector,
// naming one category of one column. CVs are sampled by first choosing a
// column uniformly and then a category from the column's log-frequency
// distribution, which over-samples minority categories so the GAN does not
// collapse onto majority classes. Alongside each training CV, a matching
// training-row index is sampled from the rows whose column value equals the
// chosen category — the idx_p of the GTV paper.
package condvec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/encoding"
	"repro/internal/tensor"
)

// Choice records which column and category a sampled CV selects, as needed
// for the generator's conditioning cross-entropy loss.
type Choice struct {
	// Span is the index into the sampler's categorical span list.
	Span int
	// Category is the selected category within that span.
	Category int
}

// Batch is one sampled batch of conditional vectors.
type Batch struct {
	// CV is batch x Width, one one-hot condition per row.
	//
	//shape:(N,W)
	CV *tensor.Dense
	// Rows holds, per CV of a training batch, the index of a real training
	// row matching the condition (the idx_p the selected client shares with
	// the server). Synthesis batches carry none: nothing real is read when
	// only the generator runs.
	Rows []int
	// Choices records the selected span/category per CV.
	Choices []Choice
	// Hot holds, per CV row, the position of its single 1 bit (-1 for an
	// all-zero row, which only zero-width samplers produce). It is the
	// sparse representation of CV: transports and embedding code can read
	// one index per row instead of scanning Width columns. Always populated
	// by the samplers; len(Hot) == CV.Rows() marks it trustworthy.
	Hot []int
}

// Sampler draws conditional vectors and matching row indices for one
// party's local table.
type Sampler struct {
	spans    []encoding.Span
	width    int
	numRows  int
	probs    [][]float64 // per span: log-frequency category distribution
	rawProbs [][]float64 // per span: raw category frequencies
	// index[i] finds the rows of each category of span i.
	index []spanIndex
	// offsets[i] is the first CV position of span i (spans are re-based to
	// the CV coordinate space, which contains only categorical one-hots).
	offsets []int
}

// spanIndex finds the u-th row, in ascending order, of any category of one
// categorical column, from every row's category code and a rank: per block
// of 1<<shift rows, each category's count before it. A lookup searches the
// category's rank for the block holding the row, then scans at most that
// block's codes, a 64-bit word of codes at a time. A block is a power of two
// of at least max(64, 16 × categories) rows, so the rank costs at most ¼
// byte a row, and the codes are the narrowest of 1, 2 or 4 bytes that hold
// the column's categories: 1¼ bytes a row up to 256 categories, against the
// 4 of a sorted int32 row list.
type spanIndex struct {
	// codes holds row r's category in width little-endian bytes at
	// codes[r*width:]. The idx_p drawn through it reveal which rows match
	// a condition.
	//privacy:source matching-row indices (idx_p)
	codes []byte
	width int
	rows  int
	shift uint
	// rank[c*(blocks+1)+k] counts the rows of category c before block k;
	// k = blocks, past the last block, gives c's total.
	rank   []int32
	blocks int
}

// newSpanIndex returns an index over rows rows of cats categories, to be
// filled by set and then ranked.
func newSpanIndex(rows, cats int) spanIndex {
	width := 4
	switch {
	case cats <= 1<<8:
		width = 1
	case cats <= 1<<16:
		width = 2
	}
	shift := uint(6)
	for 1<<shift < 16*cats {
		shift++
	}
	blocks := (rows + 1<<shift - 1) >> shift
	return spanIndex{
		codes:  make([]byte, rows*width),
		width:  width,
		rows:   rows,
		shift:  shift,
		rank:   make([]int32, (blocks+1)*cats),
		blocks: blocks,
	}
}

// cats returns the number of categories.
func (x *spanIndex) cats() int { return len(x.rank) / (x.blocks + 1) }

// set records row r's category c.
func (x *spanIndex) set(r, c int) {
	switch x.width {
	case 1:
		x.codes[r] = byte(c)
	case 2:
		binary.LittleEndian.PutUint16(x.codes[2*r:], uint16(c))
	default:
		binary.LittleEndian.PutUint32(x.codes[4*r:], uint32(c))
	}
}

// code returns row r's category.
func (x *spanIndex) code(r int) int {
	switch x.width {
	case 1:
		return int(x.codes[r])
	case 2:
		return int(binary.LittleEndian.Uint16(x.codes[2*r:]))
	default:
		return int(binary.LittleEndian.Uint32(x.codes[4*r:]))
	}
}

// count returns the number of rows of category c.
func (x *spanIndex) count(c int) int { return int(x.rank[c*(x.blocks+1)+x.blocks]) }

// rerank counts the codes into the rank, block by block. One-byte codes
// are counted into four tallies in turn, so that runs of one category do
// not make each increment wait on the one before; the tallies are folded
// in at every block boundary.
func (x *spanIndex) rerank() {
	counts := make([]int32, x.cats())
	stride := x.blocks + 1
	var tally [4][256]int32
	for k := 0; k <= x.blocks; k++ {
		for c, n := range counts {
			x.rank[c*stride+k] = n
		}
		if k == x.blocks {
			break
		}
		first, end := k<<x.shift, min((k+1)<<x.shift, x.rows)
		if x.width == 1 {
			codes := x.codes[first:end]
			for ; len(codes) >= 4; codes = codes[4:] {
				tally[0][codes[0]]++
				tally[1][codes[1]]++
				tally[2][codes[2]]++
				tally[3][codes[3]]++
			}
			for _, c := range codes {
				tally[0][c]++
			}
			for c := range counts {
				counts[c] += tally[0][c] + tally[1][c] + tally[2][c] + tally[3][c]
				tally[0][c], tally[1][c], tally[2][c], tally[3][c] = 0, 0, 0, 0
			}
			continue
		}
		for r := first; r < end; r++ {
			counts[x.code(r)]++
		}
	}
}

// row returns the u-th row, in ascending order, of category c; u must be
// below count(c).
func (x *spanIndex) row(c, u int) int {
	// The block holding the row is the last with at most u rows of c
	// before it. The search starts where the row would lie were c spread
	// evenly, which usually holds it or a neighbour, and widens by
	// doubling steps to a bracket it then halves.
	rank := x.rank[c*(x.blocks+1) : (c+1)*(x.blocks+1)]
	k := u * x.blocks / int(rank[x.blocks])
	lo, hi := k, k
	for step := 1; lo > 0 && int(rank[lo]) > u; step *= 2 {
		lo = max(lo-step, 0)
	}
	for step := 1; hi < x.blocks-1 && int(rank[hi+1]) <= u; step *= 2 {
		hi = min(hi+step, x.blocks-1)
	}
	for n := hi - lo + 1; n > 1; n -= n / 2 {
		if int(rank[lo+n/2]) <= u {
			lo += n / 2
		}
	}
	first, end := lo<<x.shift, min((lo+1)<<x.shift, x.rows)
	return first + nthCode(x.codes[first*x.width:end*x.width], x.width, c, u-int(rank[lo]), int(rank[lo+1]-rank[lo]))
}

// nthCode returns the position of the n-th (from 0) of the m codes equal to
// c in codes, which holds codes of width bytes. It scans from whichever end
// is nearer the match. Each 64-bit word is compared as one vector of
// 8/width lanes: a lane that XORs to zero with c sets its top bit in the
// match mask, exactly (no carry leaves a lane), and the mask's population
// count skips a word's matches at once. A short last word is read
// zero-padded, its padding lanes masked off.
func nthCode(codes []byte, width, c, n, m int) int {
	lsb := uint64(0x0101010101010101)
	switch width {
	case 2:
		lsb = 0x0001000100010001
	case 4:
		lsb = 0x0000000100000001
	}
	low := lsb * (1<<(8*width-1) - 1) // every lane's bits below its top one
	pattern := lsb * uint64(c)
	matches := func(word uint64) uint64 {
		v := word ^ pattern
		return ^((v&low + low) | v | low)
	}
	full := len(codes) &^ 7
	var tail uint64
	if full < len(codes) {
		var buf [8]byte
		copy(buf[:], codes[full:])
		tail = matches(binary.LittleEndian.Uint64(buf[:])) & (1<<(8*(len(codes)-full)) - 1)
	}
	if 2*n < m {
		for i := 0; i < full; i += 8 {
			mask := matches(binary.LittleEndian.Uint64(codes[i:]))
			k := bits.OnesCount64(mask)
			if n < k {
				return (i + nthBit(mask, n)/8) / width
			}
			n -= k
		}
		if n < bits.OnesCount64(tail) {
			return (full + nthBit(tail, n)/8) / width
		}
	} else {
		n = m - 1 - n
		mask := tail
		for i := full; i >= 0; i -= 8 {
			if i < full {
				mask = matches(binary.LittleEndian.Uint64(codes[i:]))
			}
			k := bits.OnesCount64(mask)
			if n < k {
				for ; n > 0; n-- {
					mask &^= 1 << (63 - bits.LeadingZeros64(mask))
				}
				return (i + (63-bits.LeadingZeros64(mask))/8) / width
			}
			n -= k
		}
	}
	panic("condvec: the rank counts more rows than the codes hold")
}

// nthBit returns the position of the n-th (from 0) set bit of mask, which
// has more than n.
func nthBit(mask uint64, n int) int {
	for ; n > 0; n-- {
		mask &= mask - 1
	}
	return bits.TrailingZeros64(mask)
}

// NewSampler builds a sampler from a party's raw table and its fitted
// transformer, reading every row's category from the table in one pass.
// Tables without categorical columns yield a zero-width sampler whose
// Sample returns empty CVs and uniform row indices.
func NewSampler(t *encoding.Table, tr *encoding.Transformer) (*Sampler, error) {
	spans := tr.CategoricalSpans()
	for i, sp := range spans {
		if sp.Column < 0 || sp.Column >= len(t.Specs) || t.Specs[sp.Column].Kind != encoding.KindCategorical {
			return nil, fmt.Errorf("condvec: span %d: encoding: column %d is not categorical", i, sp.Column)
		}
		if n := t.Specs[sp.Column].NumCategories(); n != sp.Width {
			return nil, fmt.Errorf("condvec: span %d: column %d has %d categories, the span %d", i, sp.Column, n, sp.Width)
		}
	}
	return newSampler(t.Rows(), spans, func(index []spanIndex) error {
		return t.ScanRows(func(r int, row []float64) error {
			for i, sp := range spans {
				index[i].set(r, int(row[sp.Column]))
			}
			return nil
		})
	})
}

// NewImageSampler builds a sampler from a party's encoded image and the
// transformer that laid it out: each categorical span's codes are its
// image column, decoded block by block past the block cache, so a party
// draws its rows from the image it gathers them from. A code that is not a
// category of its span is an error naming the image and raw columns.
func NewImageSampler(data *encoding.Backing, tr *encoding.Transformer) (*Sampler, error) {
	var cols []int // the image column of each categorical span
	for s, sp := range tr.Spans() {
		if sp.Categorical {
			cols = append(cols, s)
		}
	}
	return newSampler(data.Rows(), tr.CategoricalSpans(), func(index []spanIndex) error {
		for i, s := range cols {
			if err := data.SpanCodes(s, index[i].width, index[i].codes); err != nil {
				return err
			}
		}
		return nil
	})
}

// newSampler is the one index builder: fill writes every row's category
// code of each span into its index, then counting the codes block by
// block gives the rank and the category frequencies.
func newSampler(rows int, spans []encoding.Span, fill func(index []spanIndex) error) (*Sampler, error) {
	if rows == 0 {
		return nil, errors.New("condvec: empty table")
	}
	if rows > math.MaxInt32 {
		return nil, fmt.Errorf("condvec: %d rows exceed the int32 row-index space", rows)
	}
	s := &Sampler{
		spans:    spans,
		numRows:  rows,
		probs:    make([][]float64, len(spans)),
		rawProbs: make([][]float64, len(spans)),
		index:    make([]spanIndex, len(spans)),
		offsets:  make([]int, len(spans)),
	}
	if len(spans) == 0 {
		return s, nil
	}
	for i, sp := range spans {
		s.index[i] = newSpanIndex(rows, sp.Width)
	}
	if err := fill(s.index); err != nil {
		return nil, fmt.Errorf("condvec: reading categories: %w", err)
	}
	for i, sp := range spans {
		s.offsets[i] = s.width
		s.width += sp.Width
		s.index[i].rerank()

		counts := make([]int, s.index[i].cats())
		for c := range counts {
			counts[c] = s.index[i].count(c)
		}
		freq := encoding.Frequencies(counts, rows)
		// Log-frequency sampling: p_k proportional to log(1 + count_k).
		probs := make([]float64, len(freq))
		var total float64
		for k, f := range freq {
			probs[k] = math.Log1p(f * float64(rows))
			total += probs[k]
		}
		if total <= 0 {
			return nil, fmt.Errorf("condvec: column %d has no observed categories", sp.Column)
		}
		for k := range probs {
			probs[k] /= total
		}
		s.probs[i] = probs
		s.rawProbs[i] = freq
	}
	return s, nil
}

// Width returns the conditional-vector width (total categories across the
// party's categorical columns).
func (s *Sampler) Width() int { return s.width }

// NumSpans returns the number of conditionable columns.
func (s *Sampler) NumSpans() int { return len(s.spans) }

// SpanOffset returns the CV offset of categorical span i.
func (s *Sampler) SpanOffset(i int) int { return s.offsets[i] }

// Spans returns the categorical spans (in encoded-data coordinates) the
// sampler conditions on.
func (s *Sampler) Spans() []encoding.Span { return s.spans }

// Sample draws a training batch of conditional vectors with matching row
// indices, using log-frequency category sampling (which over-represents
// minority categories, CTGAN's anti-mode-collapse device).
func (s *Sampler) Sample(rng *rand.Rand, batch int) (*Batch, error) {
	return s.sample(rng, batch, s.probs, true)
}

// SampleSynthesis draws conditional vectors from the *raw* category
// frequencies, which is what CTGAN uses at generation time so the synthetic
// marginals match the training data rather than the rebalanced training
// distribution. The batch carries no row indices, but the row draws are
// made all the same, so rng advances as for a training batch.
func (s *Sampler) SampleSynthesis(rng *rand.Rand, batch int) (*Batch, error) {
	return s.sample(rng, batch, s.rawProbs, false)
}

// sample draws batch CVs from probs, each with its row draw; lookup keeps
// the rows as the batch's Rows.
func (s *Sampler) sample(rng *rand.Rand, batch int, probs [][]float64, lookup bool) (*Batch, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("condvec: batch size %d must be positive", batch)
	}
	cv := tensor.New(batch, s.width)
	var rows []int
	if lookup {
		rows = make([]int, batch)
	}
	choices := make([]Choice, batch)
	hot := make([]int, batch)
	for b := 0; b < batch; b++ {
		// No categorical columns: an all-zero CV and a uniform row.
		span, cat := -1, -1
		if len(s.spans) > 0 {
			span = rng.Intn(len(s.spans))
			cat = sampleDiscrete(rng, probs[span])
		}
		r := s.draw(rng, span, cat, lookup)
		if lookup {
			rows[b] = r
		}
		choices[b] = Choice{Span: span, Category: cat}
		hot[b] = -1
		if span >= 0 {
			hot[b] = s.offsets[span] + cat
			cv.Set(b, hot[b], 1)
		}
	}
	return &Batch{CV: cv, Rows: rows, Choices: choices, Hot: hot}, nil
}

// draw makes one CV's row draw: a rank among the rows of category cat of
// span, or a uniform row where no row matches (span -1 has none; a category
// cannot lack rows when the frequencies come from the same table, but the
// guard stays). The rank is looked up only when lookup asks; otherwise
// draw returns -1.
func (s *Sampler) draw(rng *rand.Rand, span, cat int, lookup bool) int {
	n := 0
	if span >= 0 {
		n = s.index[span].count(cat)
	}
	if n == 0 {
		return rng.Intn(s.numRows)
	}
	u := rng.Intn(n)
	if !lookup {
		return -1
	}
	return s.index[span].row(cat, u)
}

// Reindex updates the sampler's row index after the party shuffles its
// local data with permutation perm (new row k holds old row perm[k]): the
// codes move with their rows and the rank is counted again, so a
// category's rows are listed in their new ascending order. Training keeps
// the index in the order it was built in and moves the drawn rows instead
// (vfl's row order).
//
//lint:ignore deadcode bench/_gtvbench (ROADMAP 1(i))
func (s *Sampler) Reindex(perm []int) error {
	if len(perm) != s.numRows {
		return fmt.Errorf("condvec: permutation length %d, table has %d rows", len(perm), s.numRows)
	}
	for _, old := range perm {
		if old < 0 || old >= len(perm) {
			return fmt.Errorf("condvec: invalid permutation entry %d", old)
		}
	}
	for i, x := range s.index {
		y := newSpanIndex(len(perm), x.cats())
		for k, old := range perm {
			y.set(k, x.code(old))
		}
		y.rerank()
		s.index[i] = y
	}
	return nil
}

// sampleDiscrete draws an index from the given probability vector.
func sampleDiscrete(rng *rand.Rand, probs []float64) int {
	u := rng.Float64()
	var cum float64
	for i, p := range probs {
		cum += p
		if u < cum {
			return i
		}
	}
	return len(probs) - 1
}

// SampleFixed builds a batch whose every conditional vector selects the
// given category of categorical span spanIdx — the "control the class of
// generation" use of CVs. It is a synthesis batch: it carries no row
// indices, but rng advances as if one were drawn per CV from the matching
// rows.
func (s *Sampler) SampleFixed(rng *rand.Rand, batch, spanIdx, category int) (*Batch, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("condvec: batch size %d must be positive", batch)
	}
	if spanIdx < 0 || spanIdx >= len(s.spans) {
		return nil, fmt.Errorf("condvec: span %d out of range %d", spanIdx, len(s.spans))
	}
	if category < 0 || category >= s.spans[spanIdx].Width {
		return nil, fmt.Errorf("condvec: category %d out of range %d", category, s.spans[spanIdx].Width)
	}
	cv := tensor.New(batch, s.width)
	choices := make([]Choice, batch)
	hot := make([]int, batch)
	for b := 0; b < batch; b++ {
		cv.Set(b, s.offsets[spanIdx]+category, 1)
		s.draw(rng, spanIdx, category, false)
		choices[b] = Choice{Span: spanIdx, Category: category}
		hot[b] = s.offsets[spanIdx] + category
	}
	return &Batch{CV: cv, Choices: choices, Hot: hot}, nil
}
