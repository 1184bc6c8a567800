// Package attack implements the honest-but-curious server adversary of the
// GTV paper (§3.1.5, Figs. 5-6): during training the server legitimately
// observes pairs of (conditional vector, matching row indices) from the
// contributing client. By accumulating these coordinates it can attempt to
// reconstruct the one-hot encoding of every client's categorical columns.
//
// The package reproduces both sides of the paper's argument:
//
//   - WITHOUT training-with-shuffling, the mapping from row index to row
//     content is fixed, so the server's accumulated table converges to the
//     clients' true categorical data (Fig. 5);
//   - WITH training-with-shuffling, the clients re-permute their rows with
//     a shared secret seed after every round, so the (CV, index) pairs the
//     server collects refer to different rows each round and the
//     reconstruction collapses to chance (Fig. 6).
package attack

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/gmm"
	"repro/internal/tensor"
	"repro/internal/vfl"
)

// CuriousServer is the semi-honest adversary: it records every
// (conditional vector, row indices) pair it sees during training and
// infers one categorical bit per observation.
type CuriousServer struct {
	cvWidth int
	// latest[row][bit] = round at which the server last saw `bit` set for
	// `row`. Reconstruction keeps, per span, the most recent observation.
	observations map[int]map[int]int
	round        int
}

// NewCuriousServer returns an adversary for a global CV of the given width.
func NewCuriousServer(cvWidth int) *CuriousServer {
	return &CuriousServer{
		cvWidth:      cvWidth,
		observations: make(map[int]map[int]int),
	}
}

// Observe records one training step's disclosure: the conditional vectors
// and the row indices the contributor matched to them. Exactly the
// information steps 4/18 of Algorithm 1 hand the server.
func (a *CuriousServer) Observe(cv *tensor.Dense, rows []int) error {
	if cv.Rows() != len(rows) {
		return fmt.Errorf("attack: %d CVs for %d row indices", cv.Rows(), len(rows))
	}
	if cv.Cols() != a.cvWidth {
		return fmt.Errorf("attack: CV width %d, adversary built for %d", cv.Cols(), a.cvWidth)
	}
	a.round++
	for i, row := range rows {
		for j := 0; j < a.cvWidth; j++ {
			// CV bits are exact 0/1 indicators, so compare as integers.
			if int(cv.At(i, j)) != 1 {
				continue
			}
			cell, ok := a.observations[row]
			if !ok {
				cell = make(map[int]int)
				a.observations[row] = cell
			}
			cell[j] = a.round
		}
	}
	return nil
}

// Reconstruction is the server's inferred table: for every observed row, a
// set of inferred CV bit positions (one per categorical span, keeping the
// most recent observation when a span was seen multiple times).
type Reconstruction struct {
	// Bits maps row index -> inferred CV bit positions.
	Bits map[int][]int
}

// Reconstruct builds the inference table from accumulated observations.
// spans describes the global CV layout (offset+width per categorical
// column) so that conflicting observations within one span resolve to the
// most recent.
func (a *CuriousServer) Reconstruct(spans []CVSpan) *Reconstruction {
	out := &Reconstruction{Bits: make(map[int][]int, len(a.observations))}
	for row, cell := range a.observations {
		var bits []int
		for _, sp := range spans {
			bestBit, bestRound := -1, -1
			for j := sp.Offset; j < sp.Offset+sp.Width; j++ {
				if r, ok := cell[j]; ok && r > bestRound {
					bestBit, bestRound = j, r
				}
			}
			if bestBit >= 0 {
				bits = append(bits, bestBit)
			}
		}
		out.Bits[row] = bits
	}
	return out
}

// CVSpan locates one categorical column inside the global CV.
type CVSpan struct {
	// Client and Column identify the owning party and its raw column.
	Client, Column int
	// Offset and Width locate the one-hot block in the global CV.
	Offset, Width int
}

// Accuracy scores a reconstruction against the clients' true tables at a
// given moment: the fraction of inferred bits that match the true category
// of the row they claim to describe. Random guessing scores roughly
// 1/avg(categories); a successful attack approaches 1.
func (r *Reconstruction) Accuracy(tables []*encoding.Table, spans []CVSpan) (float64, error) {
	var correct, total float64
	for row, bits := range r.Bits {
		for _, bit := range bits {
			sp, err := spanForBit(spans, bit)
			if err != nil {
				return 0, err
			}
			t := tables[sp.Client]
			if row >= t.Rows() {
				return 0, fmt.Errorf("attack: row %d beyond table with %d rows", row, t.Rows())
			}
			total++
			trueCat := int(t.Data.At(row, sp.Column))
			if bit-sp.Offset == trueCat {
				correct++
			}
		}
	}
	if total < 1 {
		return 0, errors.New("attack: no observations to score")
	}
	return correct / total, nil
}

func spanForBit(spans []CVSpan, bit int) (CVSpan, error) {
	for _, sp := range spans {
		if bit >= sp.Offset && bit < sp.Offset+sp.Width {
			return sp, nil
		}
	}
	return CVSpan{}, fmt.Errorf("attack: bit %d outside every span", bit)
}

// AblationResult compares the attack with and without
// training-with-shuffling.
type AblationResult struct {
	// WithoutShuffle is the reconstruction accuracy when clients never
	// re-permute rows (the paper's Fig. 5 scenario).
	WithoutShuffle float64
	// WithShuffle is the accuracy when clients shuffle with a shared seed
	// after every round (Fig. 6); the server scores against the final
	// arrangement, the best snapshot available to it.
	WithShuffle float64
	// ChanceLevel is the expected accuracy of random guessing given the
	// category cardinalities, for calibration.
	ChanceLevel float64
	// MajorityLevel is the accuracy of always guessing each column's
	// majority category — the strongest no-information baseline, which
	// matters for heavily imbalanced columns.
	MajorityLevel float64
	// RoundsObserved is how many training rounds the adversary watched.
	RoundsObserved int
}

// Config controls the shuffling ablation.
type Config struct {
	// Rounds is the number of observed training rounds.
	Rounds int
	// Batch is the CV batch per round.
	Batch int
	// Seed drives sampling; ShuffleSecret drives the clients' shared
	// shuffle (hidden from the adversary).
	Seed, ShuffleSecret int64
}

// RunShufflingAblation simulates the conditional-vector traffic of
// Algorithm 1 against the given client tables twice — with shuffling
// disabled and enabled — and reports the curious server's reconstruction
// accuracy in each case. Only the information the real protocol discloses
// (CV_p and idx_p of the contributing client) reaches the adversary.
func RunShufflingAblation(tables []*encoding.Table, cfg Config) (*AblationResult, error) {
	if len(tables) == 0 {
		return nil, errors.New("attack: no client tables")
	}
	if cfg.Rounds <= 0 || cfg.Batch <= 0 {
		return nil, fmt.Errorf("attack: rounds %d and batch %d must be positive", cfg.Rounds, cfg.Batch)
	}

	buildSamplers := func() ([]*condvec.Sampler, error) {
		out := make([]*condvec.Sampler, len(tables))
		for i, t := range tables {
			tr, err := encoding.FitTransformer(rand.New(rand.NewSource(cfg.Seed)), t, gmm.DefaultConfig())
			if err != nil {
				return nil, err
			}
			s, err := condvec.NewSampler(t, tr)
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
		return out, nil
	}
	baseSamplers, err := buildSamplers()
	if err != nil {
		return nil, err
	}
	spans, cvWidth := globalSpans(baseSamplers)
	if cvWidth == 0 {
		return nil, errors.New("attack: no categorical columns to attack")
	}

	run := func(shuffle bool) (float64, error) {
		// Fresh working copies so the two arms are independent.
		work := make([]*encoding.Table, len(tables))
		copy(work, tables)
		workSamplers, err := buildSamplers()
		if err != nil {
			return 0, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		coord := vfl.NewShuffleCoordinator(cfg.ShuffleSecret)
		adversary := NewCuriousServer(cvWidth)

		offsets := make([]int, len(work))
		// pos[i][r] is the position row r of tables[i] has been shuffled
		// to. As in a LocalClient, the samplers keep the order they were
		// built in, and the rows they draw leave through pos.
		pos := make([][]int, len(work))
		off := 0
		for i, s := range workSamplers {
			offsets[i] = off
			off += s.Width()
			pos[i] = make([]int, work[i].Rows())
			for r := range pos[i] {
				pos[i][r] = r
			}
		}
		for round := 0; round < cfg.Rounds; round++ {
			p := rng.Intn(len(work))
			if workSamplers[p].Width() == 0 {
				continue
			}
			batch, err := workSamplers[p].Sample(rng, cfg.Batch)
			if err != nil {
				return 0, err
			}
			global := tensor.New(cfg.Batch, cvWidth)
			for i := 0; i < cfg.Batch; i++ {
				copy(global.RawRow(i)[offsets[p]:offsets[p]+workSamplers[p].Width()], batch.CV.RawRow(i))
			}
			for k, r := range batch.Rows {
				batch.Rows[k] = pos[p][r]
			}
			if err := adversary.Observe(global, batch.Rows); err != nil {
				return 0, err
			}
			if shuffle {
				seed := coord.SeedForRound(round)
				for i := range work {
					perm := rand.New(rand.NewSource(seed)).Perm(work[i].Rows())
					work[i] = work[i].ShuffleRows(perm)
					// Position perm[k] moves to k.
					inv := make([]int, len(perm))
					for k, old := range perm {
						inv[old] = k
					}
					for r, at := range pos[i] {
						pos[i][r] = inv[at]
					}
				}
			}
		}
		return adversary.Reconstruct(spans).Accuracy(work, spans)
	}

	without, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("attack: no-shuffle arm: %w", err)
	}
	with, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("attack: shuffle arm: %w", err)
	}
	return &AblationResult{
		WithoutShuffle: without,
		WithShuffle:    with,
		ChanceLevel:    chanceLevel(spans),
		MajorityLevel:  majorityLevel(tables, spans),
		RoundsObserved: cfg.Rounds,
	}, nil
}

// majorityLevel is the mean, over attacked columns, of the majority
// category's frequency — the accuracy of the best constant guess.
func majorityLevel(tables []*encoding.Table, spans []CVSpan) float64 {
	if len(spans) == 0 {
		return 0
	}
	var total float64
	for _, sp := range spans {
		freq, err := encoding.CategoryFrequencies(tables[sp.Client], sp.Column)
		if err != nil {
			continue
		}
		best := 0.0
		for _, f := range freq {
			if f > best {
				best = f
			}
		}
		total += best
	}
	return total / float64(len(spans))
}

// globalSpans lays the clients' categorical spans into the global CV space.
func globalSpans(samplers []*condvec.Sampler) ([]CVSpan, int) {
	var spans []CVSpan
	off := 0
	for i, s := range samplers {
		for _, sp := range s.Spans() {
			spans = append(spans, CVSpan{
				Client: i,
				Column: sp.Column,
				Offset: off + s.SpanOffset(indexOfSpan(s, sp.Column)),
				Width:  sp.Width,
			})
		}
		off += s.Width()
	}
	return spans, off
}

func indexOfSpan(s *condvec.Sampler, column int) int {
	for i, sp := range s.Spans() {
		if sp.Column == column {
			return i
		}
	}
	return -1
}

// chanceLevel is the accuracy of guessing each span's category uniformly.
func chanceLevel(spans []CVSpan) float64 {
	if len(spans) == 0 {
		return 0
	}
	var total float64
	for _, sp := range spans {
		total += 1 / float64(sp.Width)
	}
	return total / float64(len(spans))
}
