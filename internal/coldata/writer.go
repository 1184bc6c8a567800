package coldata

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"repro/internal/binfmt"
	"repro/internal/tensor"
)

// Writer streams a row-major float64 matrix into a gtvcol image: a file
// (Create) or any io.Writer (NewWriter), the same bytes either way. Rows are
// buffered into stripes of blockRows, column-major: AppendRow scatters a
// row's cells onto the ends of cols sequential streams, so each full stripe
// is already the per-column blocks' input and is encoded and flushed
// without a transpose. Writing a table never holds more than one stripe in
// memory, and a writer told its row count holds no more rows than that.
// Close flushes the final partial stripe, the metadata blobs and the
// footer/trailer.
type Writer struct {
	f    *bufio.Writer
	file io.Closer
	path string

	cols      int
	blockRows int
	rows      int
	pending   int // rows buffered in stripe
	// stripe holds column j's pending values at [j*stride, j*stride+pending).
	// It is slab's data, pooled and unzeroed (every value is written before
	// it is read); release returns it.
	stripe []float64
	stride int
	slab   *tensor.Dense

	enc       blockEncoder
	blockBuf  []byte
	blockLens []uint32 // stripe-major, cols per stripe
	metaNames []string
	metaBlobs map[string][]byte
	offset    int64
	closed    bool
}

// NewWriter starts a gtvcol image on dst, which stays the caller's and
// receives about a block per write. rows > 0 bounds the rows the caller
// will append: the stripe and the block encoder are sized for min(rows,
// blockRows), so a short table costs memory in proportion to its rows. The
// bytes do not depend on rows.
func NewWriter(dst io.Writer, cols, blockRows, rows int) (*Writer, error) {
	return newWriter(dst, "", cols, blockRows, rows)
}

// Create opens path for writing (truncating any existing file) and writes
// the gtvcol header. blockRows <= 0 selects DefaultBlockRows.
func Create(path string, cols, blockRows int) (*Writer, error) {
	return newWriter(nil, path, cols, blockRows, 0)
}

// newWriter writes the header to dst, or to a file it creates at path.
func newWriter(dst io.Writer, path string, cols, blockRows, rows int) (*Writer, error) {
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	if cols <= 0 || cols > maxCols {
		return nil, fmt.Errorf("coldata: invalid column count %d", cols)
	}
	if blockRows > maxBlockRows {
		return nil, fmt.Errorf("coldata: block rows %d over limit %d", blockRows, maxBlockRows)
	}
	if rows <= 0 || rows > blockRows {
		rows = blockRows
	}
	// An image has no file to close; errors call it a gtvcol image.
	file, bufSize := io.Closer(io.NopCloser(nil)), 4<<10
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		dst, file, bufSize = f, f, 1<<20
	} else {
		path = "gtvcol image"
	}
	slab := tensor.NewPooledUninit(cols, rows+stridePad)
	w := &Writer{
		f: bufio.NewWriterSize(dst, bufSize), file: file, path: path,
		cols: cols, blockRows: blockRows,
		stripe: slab.Data(), stride: rows + stridePad, slab: slab,
		enc:       newBlockEncoder(rows),
		metaBlobs: map[string][]byte{},
	}
	var hdr [headerSize]byte
	copy(hdr[:], headMagic[:])
	hdr[7] = Version
	if err := w.write(hdr[:]); err != nil {
		w.abort()
		return nil, err
	}
	return w, nil
}

// stridePad separates the column streams of a stripe by one cache line
// beyond its height. blockRows is normally a power of two, and streams a
// power of two apart share one cache set: a row's cols writes would evict
// each other's lines on every row.
const stridePad = 8

func (w *Writer) write(b []byte) error {
	n, err := w.f.Write(b)
	w.offset += int64(n)
	return err
}

// errClosed is what every method of a closed (or failed) Writer returns.
var errClosed = errors.New("coldata: writer already closed")

func (w *Writer) abort() {
	//lint:ignore errdrop the write error being handled already describes the failure
	_ = w.file.Close()
	w.release()
}

// release marks the writer closed and returns its stripe to the pool.
func (w *Writer) release() {
	w.closed = true
	w.slab.Release()
	w.slab, w.stripe = nil, nil
}

// AppendRow buffers one row (len must equal the writer's column count).
func (w *Writer) AppendRow(vals []float64) error {
	if w.closed {
		return errClosed
	}
	if len(vals) != w.cols {
		return fmt.Errorf("coldata: row has %d values, file has %d columns", len(vals), w.cols)
	}
	// A full stripe flushes at blockRows, so it is full here only when it
	// was sized for fewer rows and they have all arrived.
	if w.pending == w.stride-stridePad {
		return fmt.Errorf("coldata: row %d past the %d rows the writer was sized for", w.rows, w.pending)
	}
	stripe, stride, at := w.stripe, w.stride, w.pending
	for _, v := range vals {
		stripe[at] = v
		at += stride
	}
	w.pending++
	w.rows++
	if w.pending == w.blockRows {
		if err := w.flushStripe(); err != nil {
			// The stripe is still full: fail the writer rather than let the
			// next row scatter past it.
			w.abort()
			return err
		}
	}
	return nil
}

// AppendRows buffers every row of m (m's column count must match).
//
//lint:ignore deadcode bench/_gtvbench (ROADMAP 1(i))
func (w *Writer) AppendRows(m *tensor.Dense) error {
	if w.closed {
		return errClosed
	}
	if m.Cols() != w.cols {
		return fmt.Errorf("coldata: matrix has %d columns, file has %d", m.Cols(), w.cols)
	}
	for i := 0; i < m.Rows(); i++ {
		if err := w.AppendRow(m.RawRow(i)); err != nil {
			return err
		}
	}
	return nil
}

// SetMeta attaches a named metadata blob, written ahead of the footer on
// Close. Setting a name again replaces its blob.
func (w *Writer) SetMeta(name string, blob []byte) error {
	if w.closed {
		return errClosed
	}
	if name == "" || len(name) > maxMetaName {
		return fmt.Errorf("coldata: invalid meta name %q", name)
	}
	if len(blob) > maxMetaLen {
		return fmt.Errorf("coldata: meta %q blob too large (%d bytes)", name, len(blob))
	}
	if _, dup := w.metaBlobs[name]; !dup {
		w.metaNames = append(w.metaNames, name)
	}
	w.metaBlobs[name] = append([]byte(nil), blob...)
	return nil
}

// flushStripe encodes the buffered rows as one stripe of per-column
// blocks.
func (w *Writer) flushStripe() error {
	rows := w.pending
	if rows == 0 {
		return nil
	}
	for j := 0; j < w.cols; j++ {
		w.blockBuf = w.enc.appendBlock(w.blockBuf[:0], w.stripe[j*w.stride:j*w.stride+rows])
		if err := w.write(w.blockBuf); err != nil {
			return err
		}
		w.blockLens = append(w.blockLens, uint32(len(w.blockBuf)))
	}
	w.pending = 0
	return nil
}

// Close flushes the final stripe, writes metadata, footer and trailer,
// and closes the file. The Writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return errClosed
	}
	err := w.finish()
	w.release()
	if cerr := w.file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("coldata: writing %s: %w", w.path, err)
	}
	return nil
}

func (w *Writer) finish() error {
	if int64(w.rows) > maxRows {
		return fmt.Errorf("row count %d over limit", w.rows)
	}
	if err := w.flushStripe(); err != nil {
		return err
	}
	// Deterministic meta order regardless of SetMeta call order.
	sort.Strings(w.metaNames)
	for _, name := range w.metaNames {
		if err := w.write(w.metaBlobs[name]); err != nil {
			return err
		}
	}
	footerOff := w.offset
	stripes := len(w.blockLens) / w.cols
	footer := binfmt.Writer{Buf: make([]byte, 0, 64+len(w.blockLens)*3)}
	footer.Uvarint(uint64(w.rows))
	footer.Uvarint(uint64(w.cols))
	footer.Uvarint(uint64(w.blockRows))
	footer.Uvarint(uint64(stripes))
	for _, l := range w.blockLens {
		footer.Uvarint(uint64(l))
	}
	footer.Uvarint(uint64(len(w.metaNames)))
	for _, name := range w.metaNames {
		blob := w.metaBlobs[name]
		footer.VarString(name)
		footer.Uvarint(uint64(len(blob)))
		// The blob's CRC lives in the footer (itself CRC'd), so every byte
		// of the file is integrity-checked.
		footer.Uvarint(uint64(crc32.ChecksumIEEE(blob)))
	}
	if err := w.write(footer.Buf); err != nil {
		return err
	}
	var tr binfmt.Writer
	tr.U64(uint64(footerOff))
	tr.U32(uint32(len(footer.Buf)))
	tr.U32(crc32.ChecksumIEEE(footer.Buf))
	tr.Raw(tailMagic[:])
	if err := w.write(tr.Buf); err != nil {
		return err
	}
	return w.f.Flush()
}
