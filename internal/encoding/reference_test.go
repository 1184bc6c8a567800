package encoding

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"repro/internal/coldata"
	"repro/internal/gmm"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// The reference below is the fit and the mode sampling as they stood before
// the set-up path was reordered: the EM of internal/gmm/reference_test.go
// (copied, because test code does not cross packages, together with gmm's
// unexported prune and sort so the models come out in gmm.Fit's form) and a
// SampleMode that takes every log per cell. TestEncodePathsMatchReference
// holds every encode path of this package to it, bit for bit.

func fitReference(r *rand.Rand, data []float64, cfg gmm.Config) *gmm.Model {
	k := min(cfg.MaxComponents, len(data))
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	var mean float64
	for _, v := range data {
		mean += v
	}
	mean /= float64(len(data))
	var va float64
	for _, v := range data {
		d := v - mean
		va += d * d
	}
	va /= float64(len(data))
	std := math.Max(math.Sqrt(va), 1e-4)

	m := &gmm.Model{Weights: make([]float64, k), Means: make([]float64, k), Stds: make([]float64, k)}
	for c := 0; c < k; c++ {
		q := (float64(c) + 0.5) / float64(k)
		idx := min(int(q*float64(len(sorted))), len(sorted)-1)
		m.Means[c] = sorted[idx] + r.NormFloat64()*std*1e-3
		m.Stds[c] = std
		m.Weights[c] = 1 / float64(k)
	}

	resp := make([][]float64, len(data))
	for i := range resp {
		resp[i] = make([]float64, k)
	}
	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		var ll float64
		for i, x := range data {
			copy(resp[i], responsibilitiesReference(m, x, &ll))
		}
		ll /= float64(len(data))
		n := float64(len(data))
		for c := 0; c < k; c++ {
			var nk, mu float64
			for i, x := range data {
				nk += resp[i][c]
				mu += resp[i][c] * x
			}
			if nk < 1e-10 {
				m.Weights[c] = 0
				continue
			}
			mu /= nk
			var va float64
			for i, x := range data {
				d := x - mu
				va += resp[i][c] * d * d
			}
			va /= nk
			m.Weights[c] = nk / n
			m.Means[c] = mu
			m.Stds[c] = math.Max(math.Sqrt(va), 1e-4)
		}
		if math.Abs(ll-prevLL) < cfg.Tol {
			break
		}
		prevLL = ll
	}

	// gmm's prune, then its sortByMean.
	best := 0
	for c, w := range m.Weights {
		if w > m.Weights[best] {
			best = c
		}
	}
	var ws, ms, ss []float64
	var total float64
	for c, w := range m.Weights {
		if w >= cfg.WeightThreshold || c == best {
			ws, ms, ss = append(ws, w), append(ms, m.Means[c]), append(ss, m.Stds[c])
			total += w
		}
	}
	idx := make([]int, len(ms))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ms[idx[a]] < ms[idx[b]] })
	out := &gmm.Model{}
	for _, j := range idx {
		out.Weights = append(out.Weights, ws[j]/total)
		out.Means = append(out.Means, ms[j])
		out.Stds = append(out.Stds, ss[j])
	}
	return out
}

// responsibilitiesReference is the posterior with log w, log σ and log 2π
// taken per cell; when ll is non-nil the value's log-likelihood is added to
// it, which makes the same loop the reference E-step.
func responsibilitiesReference(m *gmm.Model, x float64, ll *float64) []float64 {
	out := make([]float64, m.K())
	maxLog := math.Inf(-1)
	for c := range out {
		d := (x - m.Means[c]) / m.Stds[c]
		out[c] = math.Log(m.Weights[c]) + (-0.5*d*d - math.Log(m.Stds[c]) - 0.5*math.Log(2*math.Pi))
		if out[c] > maxLog {
			maxLog = out[c]
		}
	}
	var sum float64
	for c := range out {
		out[c] = math.Exp(out[c] - maxLog)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
	if ll != nil {
		*ll += maxLog + math.Log(sum)
	}
	return out
}

func sampleModeReference(m *gmm.Model, r *rand.Rand, x float64) int {
	resp := responsibilitiesReference(m, x, nil)
	u := r.Float64()
	var cum float64
	for c, p := range resp {
		cum += p
		if u < cum {
			return c
		}
	}
	return len(resp) - 1
}

// encodeReference fits and encodes t the way FitTransformer followed by
// Transform used to, from one generator: all the fits in column order, then
// one mode draw per continuous cell in row-major order. It returns the
// serialized transformer and the encoded matrix.
func encodeReference(t *testing.T, r *rand.Rand, tab *Table, cfg gmm.Config) ([]byte, *tensor.Dense) {
	t.Helper()
	tr := &Transformer{specs: tab.Specs, cols: make([]colEncoder, len(tab.Specs))}
	for j, spec := range tab.Specs {
		enc := colEncoder{spec: spec}
		switch spec.Kind {
		case KindContinuous:
			enc.mixture = fitReference(r, tab.Column(j), cfg)
		case KindMixed:
			enc.specialIdx = map[float64]int{}
			for i, v := range spec.SpecialValues {
				enc.specialIdx[v] = i
			}
			var cont []float64
			for _, v := range tab.Column(j) {
				if _, special := enc.specialIdx[v]; !special {
					cont = append(cont, v)
				}
			}
			if len(cont) == 0 {
				cont = []float64{0}
			}
			enc.mixture = fitReference(r, cont, cfg)
		}
		tr.cols[j] = enc
	}
	tr.buildLayout() // for the widths only; encoding below does not use enc.post

	out := tensor.New(tab.Rows(), tr.width)
	for i := 0; i < tab.Rows(); i++ {
		row, dst := tab.Data.RawRow(i), out.RawRow(i)
		off := 0
		for j := range tr.cols {
			enc := &tr.cols[j]
			v := row[j]
			_, special := enc.specialIdx[v]
			switch {
			case enc.spec.Kind == KindCategorical:
				dst[off+int(v)] = 1
			case special:
				dst[off+1+enc.specialIdx[v]] = 1
			default:
				mode := sampleModeReference(enc.mixture, r, v)
				dst[off] = enc.mixture.Normalize(v, mode)
				dst[off+1+len(enc.spec.SpecialValues)+mode] = 1
			}
			off += enc.width()
		}
	}
	return tr.encodeBinary(), out
}

func requireSameMatrix(t *testing.T, what string, got, want *tensor.Dense) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: %dx%d, reference %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < want.Rows(); i++ {
		g, w := got.RawRow(i), want.RawRow(i)
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				t.Fatalf("%s: cell (%d,%d) = %v, reference %v", what, i, j, g[j], w[j])
			}
		}
	}
}

// compactReference turns the reference's encoded rows into span-coded
// ones — a scalar span's value, a one-hot span's hot column — reading
// nothing but the layout, and fails unless every one-hot span holds
// exactly one 1.0 among zeros.
func compactReference(t *testing.T, spans []Span, m *tensor.Dense) *tensor.Dense {
	t.Helper()
	out := tensor.New(m.Rows(), len(spans))
	for i := 0; i < m.Rows(); i++ {
		row, code := m.RawRow(i), out.RawRow(i)
		for s, sp := range spans {
			if sp.Type == SpanScalar {
				code[s] = row[sp.Start]
				continue
			}
			hot := -1
			for c, v := range row[sp.Start:sp.End()] {
				switch {
				case v == 1 && hot < 0:
					hot = c
				case v != 0:
					t.Fatalf("reference row %d span %d: %v at column %d", i, s, v, sp.Start+c)
				}
			}
			if hot < 0 {
				t.Fatalf("reference row %d span %d: no hot column", i, s)
			}
			code[s] = float64(hot)
		}
	}
	return out
}

func TestEncodePathsMatchReference(t *testing.T) {
	const rows, seed = 700, 31
	tab := sampleTable(t, rand.New(rand.NewSource(4)), rows)
	// One mixed column whose continuous part is empty joins the three kinds
	// sampleTable has, for the []float64{0} fit.
	specs := append(append([]ColumnSpec(nil), tab.Specs...), ColumnSpec{Name: "all_special", Kind: KindMixed, SpecialValues: []float64{0}})
	data := tensor.New(rows, 4)
	for i := 0; i < rows; i++ {
		copy(data.RawRow(i), tab.Data.RawRow(i))
	}
	tab, err := NewTable(specs, data)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gmm.DefaultConfig()
	wantBlob, want := encodeReference(t, rng.New(EncodeSeed(seed)).Rand, tab, cfg)

	// TransformTo's span-coded rows are the reference's rows compacted, laid
	// out by the reference's own transformer.
	refTr, err := decodeTransformer(wantBlob)
	if err != nil {
		t.Fatal(err)
	}
	wantCodes := compactReference(t, refTr.Spans(), want)

	// Transform and TransformTo, after FitTransformer, from one generator.
	for _, streamed := range []bool{false, true} {
		r := rng.New(EncodeSeed(seed)).Rand
		tr, err := FitTransformer(r, tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tr.encodeBinary(), wantBlob) {
			t.Fatal("fitted transformer differs from the one fitted through the reference EM")
		}
		var got *tensor.Dense
		if streamed {
			got = tensor.New(rows, len(tr.Spans()))
			i := 0
			err = tr.TransformTo(r, tab, func(code []float64) error {
				copy(got.RawRow(i), code)
				i++
				return nil
			})
		} else {
			got, err = tr.Transform(r, tab)
		}
		if err != nil {
			t.Fatal(err)
		}
		requireSameMatrix(t, map[bool]string{false: "Transform", true: "TransformTo"}[streamed], got,
			map[bool]*tensor.Dense{false: want, true: wantCodes}[streamed])
	}

	// OpenOrEncode: in memory, a cold write (three stripes, the last one
	// partial), and the store it left, opened again.
	st := Storage{Dir: t.TempDir(), Name: "party", BlockRows: 256}
	for _, step := range []struct {
		what string
		st   Storage
	}{{"in-memory OpenOrEncode", Storage{}}, {"cold OpenOrEncode", st}, {"warm OpenOrEncode", st}} {
		tr, backing, err := OpenOrEncode(step.st, tab, seed, cfg)
		if err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		if !bytes.Equal(tr.encodeBinary(), wantBlob) {
			t.Fatalf("%s: transformer differs from the one fitted through the reference EM", step.what)
		}
		got, err := backing.Dense(nil)
		if err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		requireSameMatrix(t, step.what, got, want)
		got.Release()
		// A transformer decoded from the store has been through buildLayout
		// like a fitted one, so it must also sample modes like the reference.
		r := rng.New(EncodeSeed(seed)).Rand
		if _, err := FitTransformer(r, tab, cfg); err != nil { // advance r past the fits
			t.Fatal(err)
		}
		again, err := tr.Transform(r, tab)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMatrix(t, step.what+", then Transform", again, want)
		if err := backing.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The image an in-memory OpenOrEncode reads, and the image the
	// reference's compacted rows make behind the same metadata, are the file
	// the cold run installed, byte for byte.
	fp := encodeFingerprint(seed, cfg, rows, tab.Specs)
	tr, fill, err := fitEncoder(tab, seed, cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	img, err := writeImage(len(tr.Spans()), st.BlockRows, rows, fill)
	if err != nil {
		t.Fatal(err)
	}
	refImg, err := writeImage(wantCodes.Cols(), st.BlockRows, rows, func(w *coldata.Writer) error {
		if err := w.SetMeta(metaFingerprint, fp); err != nil {
			return err
		}
		if err := w.SetMeta(metaTransformer, wantBlob); err != nil {
			return err
		}
		return w.AppendRows(wantCodes)
	})
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(st.EncPath())
	if err != nil {
		t.Fatal(err)
	}
	for what, b := range map[string][]byte{"in-memory image": img, "reference image": refImg} {
		if !bytes.Equal(b, file) {
			t.Fatalf("%s (%d bytes) differs from %s (%d bytes)", what, len(b), st.EncPath(), len(file))
		}
	}
}
