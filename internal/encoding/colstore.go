package encoding

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/binfmt"
	"repro/internal/coldata"
	"repro/internal/gmm"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Storage locates a party's gtvcol files inside a data directory. Two
// files exist per party: <Name>.raw.gtvcol holds the raw columns (plus
// specs and a source tag), <Name>.enc.gtvcol holds the encoded training
// matrix (plus the fitted transformer and an encode fingerprint). A zero
// Dir disables the store: the encoded matrix is then the same image, held
// in memory.
type Storage struct {
	// Dir is the data directory; empty disables on-disk backing.
	Dir string
	// Name is the per-party file stem, e.g. "central" or "client-0".
	Name string
	// CacheBytes bounds the bytes each file reader's block cache holds,
	// which are about as many bytes of its file: blocks are cached in their
	// on-disk form (0 = coldata.DefaultCacheBytes). An in-memory image's
	// cache is unbounded.
	CacheBytes int64
	// BlockRows overrides the stripe height (0 = coldata.DefaultBlockRows).
	BlockRows int
}

// Enabled reports whether the storage points at a data directory.
func (st Storage) Enabled() bool { return st.Dir != "" }

// RawPath returns the raw-table file path.
func (st Storage) RawPath() string { return filepath.Join(st.Dir, st.Name+".raw.gtvcol") }

// EncPath returns the encoded-matrix file path.
func (st Storage) EncPath() string { return filepath.Join(st.Dir, st.Name+".enc.gtvcol") }

// EncodeSeed derives the dedicated fit/transform RNG seed from a party's
// training seed. Encoding consumes its own stream so that a run which
// reuses a cached .enc.gtvcol (and therefore never fits or transforms)
// leaves the model stream untouched and follows the exact training
// trajectory of a run that encoded from scratch.
func EncodeSeed(seed int64) int64 { return seed ^ 0x6774762d636f6c31 }

// Metadata blob names inside the gtvcol files.
const (
	metaSpecs       = "specs"
	metaSource      = "source"
	metaTransformer = "transformer"
	metaFingerprint = "fingerprint"
)

// colstoreCodecVersion versions the spec/transformer blob encoding and
// what an encoded image's columns hold (since 2, a column per span; 1 held
// the encoded matrix one-hot column by column); bump on any layout change
// so stale caches re-encode instead of misparsing.
const colstoreCodecVersion = 2

// errBlob is the domain every stored-blob decode error wraps: the
// "encoding: " message prefix.
var errBlob = errors.New("encoding")

// --- spec codec ------------------------------------------------------------

// minSpecBytes is the smallest encoded ColumnSpec: an empty name's length
// byte, the kind byte and two zero counts.
const minSpecBytes = 4

// AppendSpecs appends a column-spec list in the one layout gtvwire's
// Publish reply and the gtvcol meta blobs share: a uvarint count, then per
// spec the name, the kind byte, the category labels and the special values
// (strings and lists behind uvarint lengths, values as float64 bits).
func AppendSpecs(w *binfmt.Writer, specs []ColumnSpec) {
	w.Uvarint(uint64(len(specs)))
	for i := range specs {
		appendSpec(w, &specs[i])
	}
}

func appendSpec(w *binfmt.Writer, s *ColumnSpec) {
	w.VarString(s.Name)
	w.U8(byte(s.Kind))
	w.Uvarint(uint64(len(s.Categories)))
	for _, cat := range s.Categories {
		w.VarString(cat)
	}
	w.Uvarint(uint64(len(s.SpecialValues)))
	w.F64s(s.SpecialValues)
}

// ReadSpecs decodes a list written by AppendSpecs. The specs are not
// validated: NewTable and the blob decoders below do that once the whole
// input has parsed.
func ReadSpecs(r *binfmt.Reader) []ColumnSpec {
	specs := make([]ColumnSpec, r.Count(r.Uvarint(), minSpecBytes, "column spec"))
	for i := range specs {
		readSpec(r, &specs[i])
	}
	return specs
}

func readSpec(r *binfmt.Reader, s *ColumnSpec) {
	s.Name = string(r.VarBytes())
	s.Kind = ColumnKind(r.U8())
	if n := r.Count(r.Uvarint(), 1, "category label"); n > 0 {
		s.Categories = make([]string, n)
		for i := range s.Categories {
			s.Categories[i] = string(r.VarBytes())
		}
	}
	if n := r.Count(r.Uvarint(), 8, "special value"); n > 0 {
		s.SpecialValues = make([]float64, n)
		r.F64s(s.SpecialValues)
	}
}

// blobReader starts decoding a stored blob and checks its codec version.
func blobReader(blob []byte, what string) *binfmt.Reader {
	r := binfmt.NewReader(blob, errBlob)
	if v := r.Uvarint(); v != colstoreCodecVersion {
		r.Failf("stored %s codec version %d, want %d", what, v, colstoreCodecVersion)
	}
	return &r
}

func validateSpecs(specs []ColumnSpec) error {
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return err
		}
	}
	return nil
}

func encodeSpecs(specs []ColumnSpec) []byte {
	var w binfmt.Writer
	w.Uvarint(colstoreCodecVersion)
	AppendSpecs(&w, specs)
	return w.Buf
}

func decodeSpecs(blob []byte) ([]ColumnSpec, error) {
	r := blobReader(blob, "specs")
	specs := ReadSpecs(r)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return specs, validateSpecs(specs)
}

// --- transformer codec -----------------------------------------------------

// encodeBinary serializes the fitted transformer: specs plus, per column,
// the GMM parameters as raw float64 bits. Spans and widths are layout,
// not state — decodeTransformer rebuilds them with buildLayout, the same
// routine FitTransformer uses, so a decoded transformer is functionally
// identical to the one that was fitted.
func (tr *Transformer) encodeBinary() []byte {
	var w binfmt.Writer
	w.Uvarint(colstoreCodecVersion)
	w.Uvarint(uint64(len(tr.cols)))
	for j := range tr.cols {
		enc := &tr.cols[j]
		appendSpec(&w, &enc.spec)
		if enc.mixture == nil {
			w.Uvarint(0)
			continue
		}
		w.Uvarint(uint64(enc.mixture.K()))
		w.F64s(enc.mixture.Weights)
		w.F64s(enc.mixture.Means)
		w.F64s(enc.mixture.Stds)
	}
	return w.Buf
}

func decodeTransformer(blob []byte) (*Transformer, error) {
	r := blobReader(blob, "transformer")
	// A column is its spec and at least the mixture-size byte.
	n := r.Count(r.Uvarint(), minSpecBytes+1, "column")
	tr := &Transformer{specs: make([]ColumnSpec, n), cols: make([]colEncoder, n)}
	for j := range tr.cols {
		enc := &tr.cols[j]
		readSpec(r, &enc.spec)
		// A component is a weight, a mean and a standard deviation.
		if k := r.Count(r.Uvarint(), 24, "mixture component"); k > 0 {
			enc.mixture = &gmm.Model{Weights: make([]float64, k), Means: make([]float64, k), Stds: make([]float64, k)}
			r.F64s(enc.mixture.Weights)
			r.F64s(enc.mixture.Means)
			r.F64s(enc.mixture.Stds)
		}
		if len(enc.spec.SpecialValues) > 0 {
			enc.specialIdx = make(map[float64]int, len(enc.spec.SpecialValues))
			for i, v := range enc.spec.SpecialValues {
				enc.specialIdx[v] = i
			}
		}
		tr.specs[j] = enc.spec
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if err := validateSpecs(tr.specs); err != nil {
		return nil, err
	}
	for j := range tr.cols {
		if enc := &tr.cols[j]; (enc.spec.Kind != KindCategorical) != (enc.mixture != nil) {
			return nil, fmt.Errorf("encoding: stored transformer column %q mixture presence does not match kind", enc.spec.Name)
		}
	}
	tr.buildLayout()
	return tr, nil
}

// --- fingerprint -----------------------------------------------------------

// encodeFingerprint hashes everything that determines the encoded matrix:
// the encode seed, the GMM configuration, the row count and the column
// specs. A cached .enc.gtvcol is reused only when its recorded
// fingerprint matches, so stale caches (different data, seed or config)
// re-encode instead of silently training on the wrong matrix.
func encodeFingerprint(seed int64, cfg gmm.Config, rows int, specs []ColumnSpec) []byte {
	var w binfmt.Writer
	w.Uvarint(colstoreCodecVersion)
	w.Varint(seed)
	w.Uvarint(uint64(rows))
	w.Uvarint(uint64(cfg.MaxComponents))
	w.F64(cfg.WeightThreshold)
	w.Uvarint(uint64(cfg.MaxIter))
	w.F64(cfg.Tol)
	AppendSpecs(&w, specs)
	sum := sha256.Sum256(w.Buf)
	return sum[:]
}

// --- columnar backing ------------------------------------------------------

// Backing is where trainers draw a party's encoded rows from: an immutable
// span-coded gtvcol image, the party's .enc.gtvcol or a byte slice
// (OpenOrEncode), read through one coldata.Reader, so the same training
// loop runs in-core or out-of-core bit-identically. Image column s holds
// span s's value for a scalar span and its hot column's index for a one-hot
// span (TransformTo's rows); GatherRows and Dense expand what they serve
// to encoded rows. Shuffle composes a private logical-to-physical row view
// instead of rewriting the image, but training never calls it (the trainer
// holds the row order), so in a training run view stays nil.
type Backing struct {
	// r reads the span-coded real rows; everything it serves is exactly as
	// sensitive as the encoded matrix itself.
	//privacy:source client encoded matrix (columnar image)
	r *coldata.Reader
	// tr lays the image's columns out (its spans) and names them.
	tr *Transformer
	// view maps logical row k to its physical file row; nil is identity.
	view []int32
	// idxBuf is the reusable physical-index scratch for GatherRows.
	idxBuf []int32
}

// expand writes the encoded row of span-coded row code, file row p, into
// dst (zeroed, tr.Width() long). A code that is not one of its span's
// columns — a CRC-valid image can hold any value — is an error naming the
// image column and the raw column it encodes.
func (b *Backing) expand(p int, code, dst []float64) error {
	if s := expandRow(b.tr.spans, code, dst); s >= 0 {
		sp := b.tr.spans[s]
		return fmt.Errorf("encoding: row %d, encoded column %d (column %q): code %v is not a column of its %d-wide span",
			p, s, b.tr.specs[sp.Column].Name, code[s], sp.Width)
	}
	return nil
}

// Rows returns the image's row count.
//
//privacy:sanitizer table shape metadata (row count)
func (b *Backing) Rows() int { return b.r.Rows() }

// SpanCodes decodes image column s, one-hot span s's hot indices, into dst
// as width-byte little-endian codes (see coldata.Reader.Codes), reading
// past the block cache. A value that is not a column of the span is an
// error naming the image column and the raw column it encodes. The codes
// are in file row order, so a shuffled backing refuses.
func (b *Backing) SpanCodes(s, width int, dst []byte) error {
	if s < 0 || s >= len(b.tr.spans) || b.tr.spans[s].Type != SpanOneHot {
		return fmt.Errorf("encoding: encoded column %d is not a one-hot span", s)
	}
	if b.view != nil {
		return errors.New("encoding: span codes of a shuffled backing")
	}
	sp := b.tr.spans[s]
	if err := b.r.Codes(s, sp.Width, width, dst); err != nil {
		return fmt.Errorf("encoding: encoded column %d (column %q): %w", s, b.tr.specs[sp.Column].Name, err)
	}
	return nil
}

// GatherRows returns a batch whose row k is encoded row idx[k]: the span
// codes are gathered straight from cached compact blocks and expanded into
// a zeroed pooled matrix the caller must Release when the training step is
// done with it.
//
//shape:out(N,W)
func (b *Backing) GatherRows(idx []int) (*tensor.Dense, error) {
	if cap(b.idxBuf) < len(idx) {
		b.idxBuf = make([]int32, len(idx))
	}
	phys := b.idxBuf[:len(idx)]
	for k, i := range idx {
		if i < 0 || i >= b.r.Rows() {
			return nil, fmt.Errorf("encoding: gather row %d out of range %d", i, b.r.Rows())
		}
		if b.view != nil {
			phys[k] = b.view[i]
		} else {
			phys[k] = int32(i)
		}
	}
	codes := tensor.NewPooledUninit(len(idx), b.r.Cols())
	defer codes.Release()
	if err := b.r.GatherRowsInto(phys, codes); err != nil {
		return nil, err
	}
	dst := tensor.NewPooled(len(idx), b.tr.width)
	for k, p := range phys {
		if err := b.expand(int(p), codes.RawRow(k), dst.RawRow(k)); err != nil {
			dst.Release()
			return nil, err
		}
	}
	return dst, nil
}

// Dense expands the whole image into a pooled matrix the caller must
// Release, row p of the backing's own order landing at row pos[p] (nil
// keeps that order). This is the escape hatch the faithful real pass needs
// (vfl.LocalClient passes its row order's inverse; see DESIGN.md); batched
// training never calls it.
//
//shape:out(R,W)
func (b *Backing) Dense(pos []int32) (*tensor.Dense, error) {
	rows := b.r.Rows()
	if pos != nil && len(pos) != rows {
		return nil, fmt.Errorf("encoding: row order of length %d for %d rows", len(pos), rows)
	}
	// inv sends physical file row p to its row in the backing's own order.
	var inv []int32
	if b.view != nil {
		inv = make([]int32, rows)
		for k, p := range b.view {
			inv[p] = int32(k)
		}
	}
	m := tensor.NewPooled(rows, b.tr.width)
	err := b.r.ScanStripes(func(first int, block *tensor.Dense) error {
		for i := 0; i < block.Rows(); i++ {
			at := first + i
			if inv != nil {
				at = int(inv[at])
			}
			if pos != nil {
				at = int(pos[at])
			}
			if err := b.expand(first+i, block.RawRow(i), m.RawRow(at)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		m.Release()
		return nil, err
	}
	return m, nil
}

// Shuffle re-orders the backing's own rows so that new row k holds old row
// perm[k], by composing the permutation into the view. It survives as the
// physical reference the order-view tests compare against and for the
// bench probes that time it.
//
//lint:ignore deadcode bench/_gtvbench (ROADMAP 1(i))
func (b *Backing) Shuffle(perm []int) error {
	rows := b.r.Rows()
	if len(perm) != rows {
		return fmt.Errorf("encoding: shuffle permutation length %d for %d rows", len(perm), rows)
	}
	next := make([]int32, rows)
	for k, p := range perm {
		if p < 0 || p >= rows {
			return fmt.Errorf("encoding: invalid permutation entry %d", p)
		}
		if b.view != nil {
			next[k] = b.view[p]
		} else {
			next[k] = int32(p)
		}
	}
	b.view = next
	return nil
}

// Close releases the block cache and the file handle, if any.
func (b *Backing) Close() error { return b.r.Close() }

// --- encode/open -----------------------------------------------------------

// OpenOrEncode produces a party's fitted transformer and encoded-matrix
// backing. The encoded matrix is always a span-coded gtvcol image (see
// Backing), written stripe by stripe as the rows are encoded, never held
// whole. With storage enabled it reuses <Name>.enc.gtvcol when the recorded
// fingerprint matches (skipping GMM fitting and encoding entirely, and
// reading only src's schema and row count), or loads src's rows, encodes
// them into it once and atomically installs the file for the next run.
// With storage disabled the image is a byte slice, read through an
// unbounded block cache. Every path consumes the dedicated EncodeSeed
// stream, so in-memory, freshly encoded and cache-hit runs all train
// bit-identically from the same seed.
func OpenOrEncode(st Storage, src Source, seed int64, cfg gmm.Config) (*Transformer, Backing, error) {
	rows := src.Rows()
	fp := encodeFingerprint(seed, cfg, rows, src.Schema())
	if st.Enabled() {
		if r, err := coldata.Open(st.EncPath(), st.CacheBytes); err == nil {
			if bytes.Equal(r.Meta(metaFingerprint), fp) && r.Rows() == rows {
				if tr, err := decodeTransformer(r.Meta(metaTransformer)); err == nil && len(tr.spans) == r.Cols() {
					return tr, Backing{r: r, tr: tr}, nil
				}
			}
			// Stale cache (different seed, config or data): fall through and
			// re-encode over it.
			//lint:ignore errdrop a close failure on a stale cache cannot affect the re-encode
			_ = r.Close()
		}
	}
	t, err := src.Load()
	if err != nil {
		return nil, Backing{}, err
	}
	tr, fill, err := fitEncoder(t, seed, cfg, fp)
	if err != nil {
		return nil, Backing{}, err
	}
	var r *coldata.Reader
	if st.Enabled() {
		if err = st.install(st.EncPath(), len(tr.spans), fill); err == nil {
			r, err = coldata.Open(st.EncPath(), st.CacheBytes)
		}
	} else {
		var img []byte
		if img, err = writeImage(len(tr.spans), st.BlockRows, rows, fill); err == nil {
			// Unbounded: the image itself bounds what the cache can hold.
			r, err = coldata.NewReader(bytes.NewReader(img), int64(len(img)), math.MaxInt64)
		}
	}
	if err != nil {
		return nil, Backing{}, err
	}
	return tr, Backing{r: r, tr: tr}, nil
}

// fitEncoder fits t's transformer from seed's EncodeSeed stream and returns
// it with the fill that writes the encoded matrix — the fingerprint and
// transformer metadata, then every span-coded row, drawn from the same
// stream — into an image with a column per span of tr.
func fitEncoder(t *Table, seed int64, cfg gmm.Config, fp []byte) (*Transformer, func(*coldata.Writer) error, error) {
	encRng := rng.New(EncodeSeed(seed))
	tr, err := FitTransformer(encRng.Rand, t, cfg)
	if err != nil {
		return nil, nil, err
	}
	return tr, func(w *coldata.Writer) error {
		if err := w.SetMeta(metaFingerprint, fp); err != nil {
			return err
		}
		if err := w.SetMeta(metaTransformer, tr.encodeBinary()); err != nil {
			return err
		}
		return tr.TransformTo(encRng.Rand, t, w.AppendRow)
	}, nil
}

// writeImage is install's in-memory twin: the cols-wide gtvcol image of
// rows rows that fill writes, as a byte slice.
func writeImage(cols, blockRows, rows int, fill func(*coldata.Writer) error) ([]byte, error) {
	var img bytes.Buffer
	w, err := coldata.NewWriter(&img, cols, blockRows, rows)
	if err != nil {
		return nil, err
	}
	if err := fill(w); err != nil {
		//lint:ignore errdrop the fill error already describes the failure; the image is dropped
		_ = w.Close()
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	// The buffer grew by doubling, so up to half of it is spare capacity;
	// the reader keeps an exact-size copy for as long as the party lives.
	exact := make([]byte, img.Len())
	copy(exact, img.Bytes())
	return exact, nil
}

// WriteRawTable writes t's raw columns, specs and a source tag to
// st.RawPath() (atomically, via a temp file). The tag lets a rerun decide
// whether the stored rows are the ones it would regenerate.
func WriteRawTable(st Storage, t *Table, sourceTag string) error {
	if !st.Enabled() {
		return fmt.Errorf("encoding: WriteRawTable requires a data directory")
	}
	return st.install(st.RawPath(), t.Cols(), func(w *coldata.Writer) error {
		if err := w.SetMeta(metaSpecs, encodeSpecs(t.Specs)); err != nil {
			return err
		}
		if err := w.SetMeta(metaSource, []byte(sourceTag)); err != nil {
			return err
		}
		return t.ScanRows(func(_ int, row []float64) error { return w.AppendRow(row) })
	})
}

// install writes a cols-wide gtvcol file to path atomically: fill sets the
// metadata and appends the rows of a writer on path.tmp, which is renamed
// over path once it has closed cleanly and removed otherwise.
func (st Storage) install(path string, cols int, fill func(*coldata.Writer) error) error {
	if err := os.MkdirAll(st.Dir, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	w, err := coldata.Create(tmp, cols, st.BlockRows)
	if err != nil {
		return err
	}
	werr := fill(w)
	if werr == nil {
		werr = w.Close()
	} else {
		//lint:ignore errdrop the fill error already describes the failure; the temp file is removed
		_ = w.Close()
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		//lint:ignore errdrop best-effort cleanup of the temp file
		_ = os.Remove(tmp)
		return fmt.Errorf("encoding: writing %s: %w", tmp, werr)
	}
	return nil
}

// OpenRawTable opens st.RawPath() as a Source, and returns the tag
// WriteRawTable recorded, which callers compare before trusting the rows.
// The source holds the specs and the row count and keeps no file open: its
// Load reads the stored rows into memory.
func OpenRawTable(st Storage) (Source, string, error) {
	r, err := coldata.Open(st.RawPath(), st.CacheBytes)
	if err != nil {
		return nil, "", err
	}
	//lint:ignore errdrop a read-only file whose metadata has been read
	defer func() { _ = r.Close() }()
	specs, err := decodeSpecs(r.Meta(metaSpecs))
	if err != nil {
		return nil, "", err
	}
	return &storedSplit{st: st, specs: specs, rows: r.Rows()}, string(r.Meta(metaSource)), nil
}

// storedSplit is the raw table WriteRawTable stored, as OpenRawTable found
// it.
type storedSplit struct {
	st    Storage
	specs []ColumnSpec
	rows  int
}

func (s *storedSplit) Schema() []ColumnSpec { return s.specs }

func (s *storedSplit) Rows() int { return s.rows }

// Load reads the stored rows into an in-memory Table, once it has checked
// that the file still holds the shape OpenRawTable reported.
func (s *storedSplit) Load() (*Table, error) {
	r, err := coldata.Open(s.st.RawPath(), s.st.CacheBytes)
	if err != nil {
		return nil, err
	}
	//lint:ignore errdrop a read-only file: its rows have been read, or the read has failed
	defer func() { _ = r.Close() }()
	if r.Rows() != s.rows || r.Cols() != len(s.specs) {
		return nil, fmt.Errorf("encoding: %s holds %d rows of %d columns, opened with %d of %d",
			s.st.RawPath(), r.Rows(), r.Cols(), s.rows, len(s.specs))
	}
	m := tensor.New(s.rows, len(s.specs))
	err = r.ScanStripes(func(first int, block *tensor.Dense) error {
		copy(m.Data()[first*m.Cols():], block.Data())
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("encoding: reading %s: %w", s.st.RawPath(), err)
	}
	return NewTable(s.specs, m)
}
