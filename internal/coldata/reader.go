package coldata

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"

	"repro/internal/binfmt"
	"repro/internal/tensor"
)

// Reader serves random-access row gathers and sequential stripe scans
// over a gtvcol file. Gathers keep validated blocks, compact, in a
// byte-bounded cache (see blockCache), so resident memory is bounded by
// the cache budget (plus one stripe of pooled scan buffers), never by the
// dataset.
//
// Concurrency: gathers (and CacheStats and Close) serialise on one mutex;
// Column and ScanStripes share nothing with them. ScanStripes overlaps its
// internal prefetch decode with the caller's compute but presents stripes
// strictly in order.
type Reader struct {
	src  io.ReaderAt
	file *os.File // set by Open; closed by Close

	rows, cols int
	blockRows  int
	stripes    int
	blockOff   []int64  // stripe-major absolute offsets, stripes*cols
	blockLen   []uint32 // same order
	metas      map[string][]byte

	// mu serialises gathers: the cache and the two scratch fields below
	// belong to the gather in progress.
	mu        sync.Mutex
	cache     blockCache
	order     []uint64    // the batch as row<<32 | position, sorted
	transient blockHandle // what a block that missed is parsed into
}

// Open maps the gtvcol file at path. cacheBytes bounds the bytes the block
// cache holds, which are about as many bytes of the file (0 =
// DefaultCacheBytes). The footer, trailer and metadata are validated
// eagerly; a block is validated (CRC included) every time it is read.
func Open(path string, cacheBytes int64) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		//lint:ignore errdrop the stat error is the one worth reporting
		_ = f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size(), cacheBytes)
	if err != nil {
		//lint:ignore errdrop the parse error is the one worth reporting
		_ = f.Close()
		return nil, fmt.Errorf("coldata: opening %s: %w", path, err)
	}
	r.file = f
	return r, nil
}

// NewReader parses a gtvcol image served by src (size bytes long). It is
// the io.ReaderAt-level entry point Open wraps; fuzzing drives it over
// in-memory images.
func NewReader(src io.ReaderAt, size int64, cacheBytes int64) (*Reader, error) {
	r := &Reader{src: src}
	if err := r.parseContainer(size); err != nil {
		return nil, err
	}
	r.cache.init(cacheBytes, len(r.blockLen))
	return r, nil
}

func (r *Reader) parseContainer(size int64) error {
	if size < headerSize+trailerSize {
		return corruptf("file too short (%d bytes)", size)
	}
	var hdr [headerSize]byte
	if _, err := r.src.ReadAt(hdr[:], 0); err != nil {
		return err
	}
	if [7]byte(hdr[:7]) != headMagic {
		return corruptf("bad magic")
	}
	if hdr[7] != Version {
		return corruptf("unsupported version %d", hdr[7])
	}
	var tr [trailerSize]byte
	if _, err := r.src.ReadAt(tr[:], size-trailerSize); err != nil {
		return err
	}
	if [8]byte(tr[16:]) != tailMagic {
		return corruptf("bad trailer magic")
	}
	t := binfmt.NewReader(tr[:16], ErrCorrupt)
	footerOff, footerLen, footerCRC := int64(t.U64()), int64(t.U32()), t.U32()
	if footerOff < headerSize || footerLen <= 0 || footerLen > maxFooterLen ||
		footerOff+footerLen+trailerSize != size {
		return corruptf("footer bounds off=%d len=%d size=%d", footerOff, footerLen, size)
	}
	footer := make([]byte, footerLen)
	if _, err := r.src.ReadAt(footer, footerOff); err != nil {
		return err
	}
	if crc32.ChecksumIEEE(footer) != footerCRC {
		return corruptf("footer CRC mismatch")
	}
	if err := r.parseFooter(footer, footerOff); err != nil {
		return err
	}
	return nil
}

func (r *Reader) parseFooter(footer []byte, footerOff int64) error {
	d := binfmt.NewReader(footer, ErrCorrupt)
	rows, cols, blockRows, stripes := d.Uvarint(), d.Uvarint(), d.Uvarint(), d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if int64(rows) > maxRows || cols == 0 || cols > maxCols ||
		blockRows == 0 || blockRows > maxBlockRows {
		return corruptf("dimensions rows=%d cols=%d blockRows=%d", rows, cols, blockRows)
	}
	wantStripes := (rows + blockRows - 1) / blockRows
	if stripes != wantStripes {
		return corruptf("%d stripes for %d rows of %d", stripes, rows, blockRows)
	}
	r.rows, r.cols, r.blockRows, r.stripes = int(rows), int(cols), int(blockRows), int(stripes)

	// Each block length is at least one byte.
	nBlocks := d.Count(stripes*cols, 1, "block length")
	if err := d.Err(); err != nil {
		return err
	}
	r.blockOff = make([]int64, nBlocks)
	r.blockLen = make([]uint32, nBlocks)
	off := int64(headerSize)
	for b := range r.blockLen {
		l := d.Uvarint()
		if l < 7 || l > uint64(maxBlockLen(r.stripeRows(b/r.cols))) {
			d.Failf("block %d length %d out of bounds", b, l)
		}
		r.blockOff[b] = off
		r.blockLen[b] = uint32(l)
		off += int64(l)
	}

	metaCount := d.Uvarint()
	if metaCount > maxMetaCount {
		d.Failf("%d metadata entries", metaCount)
	}
	if err := d.Err(); err != nil {
		return err
	}
	r.metas = make(map[string][]byte, metaCount)
	type metaLoc struct {
		name string
		off  int64
		len  int64
		crc  uint32
	}
	locs := make([]metaLoc, 0, metaCount)
	for i := uint64(0); i < metaCount; i++ {
		name, blobLen, blobCRC := string(d.VarBytes()), d.Uvarint(), d.Uvarint()
		if err := d.Err(); err != nil {
			return err
		}
		if len(name) == 0 || len(name) > maxMetaName {
			return corruptf("meta name length %d", len(name))
		}
		if blobLen > maxMetaLen {
			return corruptf("meta %q blob length %d", name, blobLen)
		}
		if blobCRC > 0xffffffff {
			return corruptf("meta %q CRC out of range", name)
		}
		if _, dup := r.metas[name]; dup {
			return corruptf("duplicate meta %q", name)
		}
		r.metas[name] = nil
		locs = append(locs, metaLoc{name: name, off: off, len: int64(blobLen), crc: uint32(blobCRC)})
		off += int64(blobLen)
	}
	if err := d.Finish(); err != nil {
		return err
	}
	// The accounting must land exactly on the footer: any gap would be
	// bytes the index never describes (interleaved or trailing garbage).
	if off != footerOff {
		return corruptf("content ends at %d, footer starts at %d", off, footerOff)
	}
	for _, loc := range locs {
		blob := make([]byte, loc.len)
		if _, err := r.src.ReadAt(blob, loc.off); err != nil {
			return err
		}
		if crc32.ChecksumIEEE(blob) != loc.crc {
			return corruptf("meta %q CRC mismatch", loc.name)
		}
		r.metas[loc.name] = blob
	}
	return nil
}

// Rows returns the row count.
func (r *Reader) Rows() int { return r.rows }

// Cols returns the column count.
func (r *Reader) Cols() int { return r.cols }

// Meta returns the named metadata blob, or nil if absent.
func (r *Reader) Meta(name string) []byte { return r.metas[name] }

// stripeRows returns the row count of stripe s (the last may be short).
func (r *Reader) stripeRows(s int) int {
	if s == r.stripes-1 {
		if tail := r.rows - s*r.blockRows; tail > 0 {
			return tail
		}
	}
	return r.blockRows
}

// Close releases the cache and closes the underlying file (when the
// Reader came from Open).
func (r *Reader) Close() error {
	r.mu.Lock()
	r.cache.drop()
	r.mu.Unlock()
	if r.file != nil {
		f := r.file
		r.file = nil
		return f.Close()
	}
	return nil
}

// CacheStats returns the block cache's counters.
//
//lint:ignore deadcode block-cache counters the cache tests assert on
func (r *Reader) CacheStats() CacheStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.cache.stats
	st.ResidentBytes, st.BudgetBytes = r.cache.used, r.cache.limit
	return st
}

// readBlock reads block (s, j) into buf, which must be blockLen bytes
// long, and validates it into h. h aliases buf: it is good until buf is
// released, which stays the caller's to do.
func (r *Reader) readBlock(h *blockHandle, buf *BlockBuf, s, j int) error {
	if _, err := r.src.ReadAt(buf.Bytes(), r.blockOff[s*r.cols+j]); err != nil {
		return err
	}
	if err := parseBlock(h, buf.Bytes(), r.stripeRows(s)); err != nil {
		return fmt.Errorf("stripe %d column %d: %w", s, j, err)
	}
	return nil
}

// GatherRowsInto fills dst (len(rows) x Cols) with the requested rows, in
// order. The batch is sorted by file row, and each stripe's share of it is
// served column by column, so a gather looks every block it needs up once,
// always in the same stripe-major order (the sweep blockCache is built
// for), and reads blocks in their compact form.
func (r *Reader) GatherRowsInto(rows []int32, dst *tensor.Dense) error {
	if dst.Rows() != len(rows) || dst.Cols() != r.cols {
		return fmt.Errorf("coldata: gather destination %dx%d for %d rows x %d cols",
			dst.Rows(), dst.Cols(), len(rows), r.cols)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	order := r.order[:0]
	for k, row := range rows {
		if row < 0 || int(row) >= r.rows {
			return fmt.Errorf("coldata: row %d out of range %d", row, r.rows)
		}
		order = append(order, uint64(row)<<32|uint64(k))
	}
	r.order = order
	slices.Sort(order)
	r.cache.sweep++
	data := dst.Data()
	for lo := 0; lo < len(order); {
		s := int(order[lo]>>32) / r.blockRows
		end := uint64((s+1)*r.blockRows) << 32
		hi := lo + 1
		for hi < len(order) && order[hi] < end {
			hi++
		}
		for j := 0; j < r.cols; j++ {
			if err := r.gatherColumn(s, j, order[lo:hi], data[j:]); err != nil {
				return err
			}
		}
		lo = hi
	}
	return nil
}

// gatherColumn serves group — the batch's keys that fall in stripe s — from
// block (s, j) into col, column j of the destination. A block that misses
// the cache is read into a pooled buffer and validated in full; the cache
// may keep a copy, but the lookups are served from the buffer, which goes
// back to the pool before the next column.
func (r *Reader) gatherColumn(s, j int, group []uint64, col []float64) error {
	b, base := s*r.cols+j, s*r.blockRows
	if h := r.cache.get(b); h != nil {
		h.lookup(group, base, col, r.cols)
		return nil
	}
	buf := AcquireBlockBuf(int(r.blockLen[b]))
	t := &r.transient
	if err := r.readBlock(t, buf, s, j); err != nil {
		buf.Release()
		return err
	}
	r.cache.stats.BytesRead += int64(r.blockLen[b])
	r.cache.offer(b, t)
	t.lookup(group, base, col, r.cols)
	t.payload = nil // it aliased buf
	buf.Release()
	return nil
}

// Column returns a copy of column j.
func (r *Reader) Column(j int) ([]float64, error) {
	if j < 0 || j >= r.cols {
		return nil, fmt.Errorf("coldata: column %d out of range %d", j, r.cols)
	}
	out := make([]float64, r.rows)
	var h blockHandle
	for s := 0; s < r.stripes; s++ {
		if err := r.expandBlock(&h, s, j, out[s*r.blockRows:], 1); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// expandBlock reads block (s, j) past the cache — sequential readers would
// only evict the gathers' working set — and writes its rows to dst[0],
// dst[stride], and so on. h is the caller's scratch, reused from block to
// block for its skip table's capacity.
func (r *Reader) expandBlock(h *blockHandle, s, j int, dst []float64, stride int) error {
	buf := AcquireBlockBuf(int(r.blockLen[s*r.cols+j]))
	defer buf.Release()
	if err := r.readBlock(h, buf, s, j); err != nil {
		return err
	}
	h.fill(dst, stride)
	return nil
}

// scanResult carries one decoded stripe from the prefetch goroutine.
type scanResult struct {
	m   *tensor.Dense
	err error
}

// decodeStripe expands stripe s into a pooled rows x cols matrix. The
// caller owns (and must Release) the matrix.
func (r *Reader) decodeStripe(s int) (*tensor.Dense, error) {
	rows := r.stripeRows(s)
	m := tensor.NewPooledUninit(rows, r.cols)
	var h blockHandle
	for j := 0; j < r.cols; j++ {
		if err := r.expandBlock(&h, s, j, m.Data()[j:], r.cols); err != nil {
			m.Release()
			return nil, err
		}
	}
	return m, nil
}

// ScanStripes streams every stripe through fn in row order as a dense
// rows x cols matrix (valid only during the callback). Decode is double
// buffered: while fn processes stripe s, a prefetch goroutine decodes
// stripe s+1, so I/O and decode overlap the caller's compute.
func (r *Reader) ScanStripes(fn func(firstRow int, block *tensor.Dense) error) error {
	if r.rows == 0 {
		return nil
	}
	decodeAsync := func(s int) chan scanResult {
		ch := make(chan scanResult, 1) // buffered: the send cannot block, so the goroutine always exits
		go func() {
			m, err := r.decodeStripe(s)
			ch <- scanResult{m: m, err: err}
		}()
		return ch
	}
	pending := decodeAsync(0)
	defer func() {
		if pending != nil {
			// Early exit with a prefetch in flight: wait for it and return
			// its buffer to the pool.
			res := <-pending
			res.m.Release()
		}
	}()
	for s := 0; s < r.stripes; s++ {
		var next chan scanResult
		if s+1 < r.stripes {
			next = decodeAsync(s + 1)
		}
		res := <-pending
		pending = next
		if res.err != nil {
			return res.err
		}
		err := fn(s*r.blockRows, res.m)
		res.m.Release()
		if err != nil {
			return err
		}
	}
	return nil
}
