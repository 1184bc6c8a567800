package vfl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/binfmt"
	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/tensor"
)

// --- frame layer ---

func TestWireHeaderRoundTrip(t *testing.T) {
	h := wireHeader{
		payloadLen: 12345,
		version:    wireVersion,
		kind:       wireKindResponse,
		method:     wireMethodBackwardGen,
		flags:      wireFlagF32,
		seq:        1<<40 + 7,
	}
	var buf [wireHeaderLen]byte
	h.put(buf[:])
	got, err := parseWireHeader(buf[:])
	if err != nil {
		t.Fatalf("parseWireHeader: %v", err)
	}
	if got != h {
		t.Fatalf("header round trip %+v -> %+v", h, got)
	}
}

func TestWireHeaderRejectsGarbage(t *testing.T) {
	mk := func(mutate func(*wireHeader)) []byte {
		h := wireHeader{payloadLen: 8, version: wireVersion, kind: wireKindRequest, method: wireMethodInfo}
		mutate(&h)
		var buf [wireHeaderLen]byte
		h.put(buf[:])
		return buf[:]
	}
	cases := map[string][]byte{
		"bad version":      mk(func(h *wireHeader) { h.version = 99 }),
		"bad kind":         mk(func(h *wireHeader) { h.kind = 0 }),
		"oversize payload": mk(func(h *wireHeader) { h.payloadLen = wireMaxPayload + 1 }),
	}
	for name, buf := range cases {
		if _, err := parseWireHeader(buf); err == nil {
			t.Errorf("%s: parseWireHeader accepted a bad header", name)
		}
	}
}

// TestWireVersion2HeaderRefused: a version-2 peer cannot read the masked
// layout, so a mixed pair must fail at the first header, not mid-round.
func TestWireVersion2HeaderRefused(t *testing.T) {
	var buf [wireHeaderLen]byte
	wireHeader{payloadLen: 8, version: 2, kind: wireKindRequest, method: wireMethodInfo}.put(buf[:])
	_, err := parseWireHeader(buf[:])
	if err == nil || !strings.Contains(err.Error(), "unsupported frame version 2") {
		t.Fatalf("version-2 header: %v", err)
	}
	if wireVersion != 3 {
		t.Fatalf("wireVersion = %d, the masked layout shipped in 3", wireVersion)
	}
}

// headerThenEOF serves one frame header and nothing else.
type headerThenEOF struct{ hdr []byte }

func (r *headerThenEOF) Read(p []byte) (int, error) {
	if len(r.hdr) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.hdr)
	r.hdr = r.hdr[n:]
	return n, nil
}

// TestReadWireFrameAllocatesBehindArrivedBytes: sixteen bytes that claim the
// largest payload the header check admits must not make the reader allocate
// it — the buffer may run at most 1 MiB ahead of what has arrived.
func TestReadWireFrameAllocatesBehindArrivedBytes(t *testing.T) {
	var hdr [wireHeaderLen]byte
	wireHeader{payloadLen: wireMaxPayload, version: wireVersion, kind: wireKindResponse, method: wireMethodForwardReal}.put(hdr[:])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readWireFrame(&headerThenEOF{hdr: hdr[:]})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "short payload") {
		t.Fatalf("header then EOF: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
		t.Fatalf("a %d-byte header made readWireFrame allocate %d bytes", wireHeaderLen, grew)
	}
}

// TestReadWireFrameGrowsWithArrivingBytes: a payload larger than the
// read-ahead arrives whole through the growing buffer, a pooled buffer that
// already has the room is used as it is, and a frame under the read-ahead
// takes one buffer of exactly its size.
func TestReadWireFrameGrowsWithArrivingBytes(t *testing.T) {
	payload := make([]byte, 5<<20+123)
	rand.New(rand.NewSource(5)).Read(payload)
	frame := make([]byte, wireHeaderLen, wireHeaderLen+len(payload))
	wireHeader{payloadLen: uint32(len(payload)), version: wireVersion, kind: wireKindResponse, method: wireMethodPublish}.put(frame)
	frame = append(frame, payload...)
	for _, pass := range []string{"growing", "pooled"} {
		_, got, err := readWireFrame(iotest.OneByteReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s: payload changed on the way in", pass)
		}
		putWireBuf(got)
	}
	// Under the read-ahead nothing grows: one buffer of the payload's size at
	// most (none when the pool has one).
	small := append([]byte(nil), frame[:wireHeaderLen+600<<10]...)
	wireHeader{payloadLen: 600 << 10, version: wireVersion, kind: wireKindResponse, method: wireMethodPublish}.put(small)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, got, err := readWireFrame(bytes.NewReader(small))
	runtime.ReadMemStats(&after)
	if err != nil || !bytes.Equal(got, small[wireHeaderLen:]) {
		t.Fatalf("600 KiB frame: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 700<<10 {
		t.Fatalf("a 600 KiB frame allocated %d bytes: more than its one buffer", grew)
	}
}

// --- golden fixtures ---

// goldenWireFrames builds the pinned fixture frames: a byte-level contract
// between independently-built server and client binaries. Regenerate with
//
//	GTV_UPDATE_WIRE_FIXTURES=1 go test ./internal/vfl -run TestWireGoldenFrames
//
// and treat any diff in testdata/wire as an incompatible format change that
// must bump wireVersion.
func goldenWireFrames() map[string][]byte {
	frame := func(kind, method, flags byte, seq uint64, payload []byte) []byte {
		h := wireHeader{
			payloadLen: uint32(len(payload)),
			version:    wireVersion,
			kind:       kind,
			method:     method,
			flags:      flags,
			seq:        seq,
		}
		out := make([]byte, wireHeaderLen+len(payload))
		h.put(out)
		copy(out[wireHeaderLen:], payload)
		return out
	}
	fixtures := make(map[string][]byte)

	// ForwardSynthetic request: a 2x3 float64 slice plus the phase.
	enc := newWireEnc()
	enc.matrix(tensor.FromRows([][]float64{{1, -2.5, 3.25}, {4, 5.5, -6.75}}), false)
	enc.I64(int64(PhaseDiscriminator))
	fixtures["forward_synthetic_req.bin"] = frame(wireKindRequest, wireMethodForwardSynthetic, 0, 7, enc.Buf)
	enc.release()

	// The same call in float32 payload mode (flags bit 0, elemSize 4).
	enc = newWireEnc()
	enc.matrix(tensor.FromRows([][]float64{{1, -2.5, 3.25}, {4, 5.5, -6.75}}), true)
	enc.I64(int64(PhaseDiscriminator))
	fixtures["forward_synthetic_req_f32.bin"] = frame(wireKindRequest, wireMethodForwardSynthetic, wireFlagF32, 7, enc.Buf)
	enc.release()

	// Info response.
	enc = newWireEnc()
	enc.clientInfo(ClientInfo{Features: 3, EncodedWidth: 17, CVWidth: 5, Rows: 800})
	fixtures["info_resp.bin"] = frame(wireKindResponse, wireMethodInfo, 0, 9, enc.Buf)
	enc.release()

	// SampleCV response: CV matrix (one-hot layout via the sampler's Hot
	// slice — byte-identical to the scanning encoder), row indices, choices.
	enc = newWireEnc()
	enc.cvBatch(&condvec.Batch{
		CV:      tensor.FromRows([][]float64{{0, 1}, {1, 0}}),
		Hot:     []int{1, 0},
		Rows:    []int{4, 9},
		Choices: []condvec.Choice{{Span: 1, Category: 2}, {Span: 0, Category: 3}},
	}, false)
	fixtures["sample_cv_resp.bin"] = frame(wireKindResponse, wireMethodSampleCV, 0, 11, enc.Buf)
	enc.release()

	// A 0/1 mask with several hot bits per row: the bitmap layout.
	enc = newWireEnc()
	enc.matrix(tensor.FromRows([][]float64{{1, 0, 1, 1, 0}, {0, 1, 0, 1, 1}}), false)
	fixtures["mask_bitmap.bin"] = frame(wireKindResponse, wireMethodForwardReal, 0, 13, enc.Buf)
	enc.release()

	// A mostly-zero gradient: the delta-coded index-list (sparse) layout.
	enc = newWireEnc()
	sp := tensor.New(4, 8)
	sp.Set(0, 2, 0.5)
	sp.Set(2, 1, -1.25)
	sp.Set(3, 7, 3)
	enc.matrix(sp, false)
	fixtures["grad_sparse.bin"] = frame(wireKindRequest, wireMethodBackwardGen, 0, 15, enc.Buf)
	enc.release()

	// A delta-encoded snapshot response: three changed bytes against a
	// 64-byte base (form, epoch, crc of the new blob, length, ops).
	base := bytes.Repeat([]byte{0xAA}, 64)
	cur := append([]byte(nil), base...)
	cur[10], cur[11], cur[40] = 1, 2, 3
	enc = newWireEnc()
	enc.U8(wireSnapDelta)
	enc.Uvarint(5)
	enc.U32(snapDeltaCRC(cur))
	enc.Uvarint(uint64(len(cur)))
	appendSnapDeltaOps(enc, base, cur)
	fixtures["snapshot_delta_resp.bin"] = frame(wireKindResponse, wireMethodSnapshot, 0, 17, enc.Buf)
	enc.release()

	// An application error response.
	enc = newWireEnc()
	enc.VarString("vfl: client not configured")
	fixtures["error_resp.bin"] = frame(wireKindError, wireMethodPublish, 0, 3, enc.Buf)
	enc.release()

	// Publish response: a spec list (one column of each kind) and the table.
	enc = newWireEnc()
	enc.table(goldenPublishTable(), false)
	fixtures["publish_resp.bin"] = frame(wireKindResponse, wireMethodPublish, 0, 19, enc.Buf)
	enc.release()

	// Configure request: the Setup record.
	enc = newWireEnc()
	enc.setup(goldenSetup)
	fixtures["configure_req.bin"] = frame(wireKindRequest, wireMethodConfigure, 0, 21, enc.Buf)
	enc.release()

	// Restore request: a length-prefixed opaque byte string.
	enc = newWireEnc()
	enc.VarBytes(goldenRestoreBlob)
	fixtures["restore_req.bin"] = frame(wireKindRequest, wireMethodRestore, 0, 23, enc.Buf)
	enc.release()

	// What a Dropout leaves of critic logits: zeros of both signs among the
	// values — the masked layout. The NaN payload and the denormal are the
	// bit patterns a value compare would lose.
	enc = newWireEnc()
	enc.matrix(goldenMaskedLogits(), false)
	fixtures["logits_masked.bin"] = frame(wireKindResponse, wireMethodForwardReal, 0, 25, enc.Buf)
	enc.release()

	return fixtures
}

// goldenMaskedLogits is the 3x5 matrix behind logits_masked.bin.
func goldenMaskedLogits() *tensor.Dense {
	negZero := math.Copysign(0, -1)
	return tensor.FromRows([][]float64{
		{0.75, negZero, 0, -1.5, negZero},
		{0, math.Float64frombits(0x7FF8000000C0FFEE), negZero, 0, 2.25},
		{negZero, 0, 5e-324, negZero, -0.125},
	})
}

// The values behind publish_resp.bin, configure_req.bin and restore_req.bin.
// configure_req.bin, restore_req.bin and the spec list that opens
// publish_resp.bin's payload were written by the encoder as it stood before
// the codec moved onto internal/binfmt and must never be regenerated: wire
// version 3 patched their version byte and nothing else. The table that
// follows publish_resp.bin's spec list holds two +0 and is 12 bytes shorter
// in the masked layout, so that tail (and the header's payload length) was
// re-cut with version 3; TestWirePublishSpecsAreTheSharedCodec still pins
// the prefix.
var (
	goldenSetup = Setup{
		Plan:          Plan{DiscServer: 2, DiscClient: 1, GenServer: 1, GenClient: 2},
		SliceWidth:    24,
		GenBlockWidth: 128,
		DiscWidth:     256,
		LR:            2e-4,
		Seed:          -77,
	}
	goldenRestoreBlob = []byte("GTVSNP\x02\x03 a short blob")
)

func goldenPublishTable() *encoding.Table {
	return &encoding.Table{
		Specs: []encoding.ColumnSpec{
			{Name: "segment", Kind: encoding.KindCategorical, Categories: []string{"retail", "", "sme"}},
			{Name: "spend", Kind: encoding.KindContinuous},
			{Name: "mortgage", Kind: encoding.KindMixed, SpecialValues: []float64{0, -1.5}},
		},
		Data: tensor.FromRows([][]float64{{0, 12.5, 0}, {2, -3.25, 1800.75}, {1, 0.1, -1.5}}),
	}
}

func TestWireGoldenFrames(t *testing.T) {
	dir := filepath.Join("testdata", "wire")
	fixtures := goldenWireFrames()
	if os.Getenv("GTV_UPDATE_WIRE_FIXTURES") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatalf("mkdir %s: %v", dir, err)
		}
		for name, frame := range fixtures {
			if err := os.WriteFile(filepath.Join(dir, name), frame, 0o644); err != nil {
				t.Fatalf("writing fixture %s: %v", name, err)
			}
		}
	}
	for name, want := range fixtures {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("reading fixture %s (regenerate with GTV_UPDATE_WIRE_FIXTURES=1): %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("fixture %s: encoder output diverged from the pinned bytes — this is a wire format break; bump wireVersion", name)
		}
	}
}

// TestWireGoldenFramesDecode decodes the pinned fixture bytes back into
// structures, holding the decoder to the same contract as the encoder.
func TestWireGoldenFramesDecode(t *testing.T) {
	read := func(name string) (wireHeader, *wireDec) {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("testdata", "wire", name))
		if err != nil {
			t.Fatalf("reading fixture %s: %v", name, err)
		}
		h, payload, err := readWireFrame(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("readWireFrame(%s): %v", name, err)
		}
		return h, newWireDec(payload)
	}

	h, dec := read("forward_synthetic_req.bin")
	if h.method != wireMethodForwardSynthetic || h.seq != 7 || h.flags != 0 {
		t.Fatalf("forward_synthetic_req header = %+v", h)
	}
	m := dec.matrix()
	phase := Phase(dec.I64())
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := tensor.FromRows([][]float64{{1, -2.5, 3.25}, {4, 5.5, -6.75}})
	if !m.Equal(want) || phase != PhaseDiscriminator {
		t.Fatalf("decoded %v phase %d", m, phase)
	}
	m.Release()

	h, dec = read("forward_synthetic_req_f32.bin")
	if h.flags&wireFlagF32 == 0 {
		t.Fatalf("f32 fixture lost its flag: %+v", h)
	}
	m = dec.matrix()
	_ = dec.I64()
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode f32: %v", err)
	}
	// The fixture values are exactly representable in float32.
	if !m.Equal(want) {
		t.Fatalf("f32 decoded %v", m)
	}
	m.Release()

	_, dec = read("info_resp.bin")
	info := dec.clientInfo()
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode info: %v", err)
	}
	if info != (ClientInfo{Features: 3, EncodedWidth: 17, CVWidth: 5, Rows: 800}) {
		t.Fatalf("decoded info %+v", info)
	}

	_, dec = read("sample_cv_resp.bin")
	b := dec.cvBatch()
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode cv batch: %v", err)
	}
	if len(b.Rows) != 2 || b.Rows[0] != 4 || b.Rows[1] != 9 ||
		len(b.Choices) != 2 || b.Choices[0] != (condvec.Choice{Span: 1, Category: 2}) {
		t.Fatalf("decoded batch %+v", b)
	}
	if !b.CV.Equal(tensor.FromRows([][]float64{{0, 1}, {1, 0}})) {
		t.Fatalf("decoded CV %v", b.CV)
	}
	if len(b.Hot) != 2 || b.Hot[0] != 1 || b.Hot[1] != 0 {
		t.Fatalf("decoded hot positions %v", b.Hot)
	}
	b.CV.Release()

	h, dec = read("mask_bitmap.bin")
	if h.method != wireMethodForwardReal {
		t.Fatalf("mask fixture header %+v", h)
	}
	m = dec.matrix()
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode mask: %v", err)
	}
	if !m.Equal(tensor.FromRows([][]float64{{1, 0, 1, 1, 0}, {0, 1, 0, 1, 1}})) {
		t.Fatalf("decoded mask %v", m)
	}
	m.Release()

	h, dec = read("grad_sparse.bin")
	if h.method != wireMethodBackwardGen {
		t.Fatalf("sparse fixture header %+v", h)
	}
	m = dec.matrix()
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode sparse: %v", err)
	}
	wantSparse := tensor.New(4, 8)
	wantSparse.Set(0, 2, 0.5)
	wantSparse.Set(2, 1, -1.25)
	wantSparse.Set(3, 7, 3)
	if !m.Equal(wantSparse) {
		t.Fatalf("decoded sparse gradient %v", m)
	}
	m.Release()

	h, dec = read("logits_masked.bin")
	if h.method != wireMethodForwardReal || h.seq != 25 {
		t.Fatalf("masked fixture header %+v", h)
	}
	if raw, err := os.ReadFile(filepath.Join("testdata", "wire", "logits_masked.bin")); err != nil || raw[wireHeaderLen] != wireLayoutMasked {
		t.Fatalf("masked fixture does not open with layout %d (%v)", wireLayoutMasked, err)
	}
	m = dec.matrix()
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode masked: %v", err)
	}
	for i, v := range m.Data() {
		if want := goldenMaskedLogits().Data()[i]; math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("masked fixture element %d: bits %016x, want %016x", i, math.Float64bits(v), math.Float64bits(want))
		}
	}
	m.Release()

	h, dec = read("snapshot_delta_resp.bin")
	if h.method != wireMethodSnapshot {
		t.Fatalf("delta fixture header %+v", h)
	}
	if form := dec.U8(); form != wireSnapDelta {
		t.Fatalf("delta fixture form %d", form)
	}
	if epoch := dec.Uvarint(); epoch != 5 {
		t.Fatalf("delta fixture epoch %d", epoch)
	}
	crc := dec.U32()
	newLen := int(dec.Uvarint())
	base := bytes.Repeat([]byte{0xAA}, 64)
	blob := decodeSnapDelta(dec, base, newLen)
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode snapshot delta: %v", err)
	}
	if snapDeltaCRC(blob) != crc {
		t.Fatalf("reassembled blob crc %08x, frame says %08x", snapDeltaCRC(blob), crc)
	}
	wantBlob := append([]byte(nil), base...)
	wantBlob[10], wantBlob[11], wantBlob[40] = 1, 2, 3
	if !bytes.Equal(blob, wantBlob) {
		t.Fatalf("reassembled blob diverged at %d bytes", len(blob))
	}

	h, dec = read("error_resp.bin")
	if h.kind != wireKindError {
		t.Fatalf("error fixture kind %d", h.kind)
	}
	if msg := dec.str(); msg != "vfl: client not configured" {
		t.Fatalf("decoded error message %q", msg)
	}
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode error frame: %v", err)
	}

	h, dec = read("publish_resp.bin")
	if h.method != wireMethodPublish {
		t.Fatalf("publish fixture header %+v", h)
	}
	specs := encoding.ReadSpecs(&dec.Reader)
	m = dec.matrix()
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode publish: %v", err)
	}
	wantTable := goldenPublishTable()
	if !reflect.DeepEqual(specs, wantTable.Specs) {
		t.Fatalf("decoded specs %+v", specs)
	}
	if !m.Equal(wantTable.Data) {
		t.Fatalf("decoded table %v", m)
	}
	m.Release()

	h, dec = read("configure_req.bin")
	if h.method != wireMethodConfigure {
		t.Fatalf("configure fixture header %+v", h)
	}
	setup := dec.setup()
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode configure: %v", err)
	}
	if setup != goldenSetup {
		t.Fatalf("decoded setup %+v", setup)
	}

	h, dec = read("restore_req.bin")
	if h.method != wireMethodRestore {
		t.Fatalf("restore fixture header %+v", h)
	}
	state := dec.bytes()
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode restore: %v", err)
	}
	if !bytes.Equal(state, goldenRestoreBlob) {
		t.Fatalf("decoded blob %q", state)
	}
}

// TestWirePublishSpecsAreTheSharedCodec compares the spec list inside
// publish_resp.bin — bytes gtvwire's own per-spec loop wrote before it was
// deleted — with encoding.AppendSpecs, the codec the gtvcol meta blobs store
// specs with: one layout, byte for byte.
func TestWirePublishSpecsAreTheSharedCodec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "wire", "publish_resp.bin"))
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	var w binfmt.Writer
	encoding.AppendSpecs(&w, goldenPublishTable().Specs)
	if len(w.Buf) == 0 || !bytes.HasPrefix(raw[wireHeaderLen:], w.Buf) {
		t.Fatalf("shared codec wrote % x, the pinned frame carries % x", w.Buf, raw[wireHeaderLen:])
	}
}

// --- codec round trips ---

// encodeDecode pushes one payload through a real frame write/read cycle.
func encodeDecode(t *testing.T, encode func(*wireEnc)) *wireDec {
	t.Helper()
	enc := newWireEnc()
	encode(enc)
	h := wireHeader{payloadLen: uint32(len(enc.Buf)), version: wireVersion, kind: wireKindResponse, method: wireMethodInfo}
	var buf bytes.Buffer
	var hdr [wireHeaderLen]byte
	h.put(hdr[:])
	buf.Write(hdr[:])
	buf.Write(enc.Buf)
	enc.release()
	_, payload, err := readWireFrame(&buf)
	if err != nil {
		t.Fatalf("readWireFrame: %v", err)
	}
	return newWireDec(payload)
}

func TestWireMatrixCodecRoundTrip(t *testing.T) {
	shapes := []struct{ rows, cols int }{
		{0, 0}, {0, 5}, {5, 0}, {1, 1}, {3, 4}, {17, 31},
	}
	for _, sh := range shapes {
		name := fmt.Sprintf("%dx%d", sh.rows, sh.cols)
		m := tensor.New(sh.rows, sh.cols)
		data := m.Data()
		for i := range data {
			data[i] = float64(i)*1.25 - 7
		}
		dec := encodeDecode(t, func(e *wireEnc) { e.matrix(m, false) })
		got := dec.matrix()
		if err := dec.Finish(); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.Rows() != sh.rows || got.Cols() != sh.cols {
			t.Fatalf("%s: decoded shape %dx%d", name, got.Rows(), got.Cols())
		}
		if !got.Equal(m) {
			t.Fatalf("%s: round trip changed values", name)
		}
		got.Release()
	}
}

func TestWireMatrixCodecNil(t *testing.T) {
	dec := encodeDecode(t, func(e *wireEnc) { e.matrix(nil, false) })
	if got := dec.matrix(); got != nil {
		t.Fatalf("nil matrix decoded as %v", got)
	}
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode nil matrix: %v", err)
	}
}

// TestWireMatrixCodecBitExact round-trips every float64 bit pattern worth
// worrying about — negative zero, infinities, NaN, denormals — comparing
// raw bits because NaN != NaN.
func TestWireMatrixCodecBitExact(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1),
		math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-310}
	m := tensor.New(2, 5)
	copy(m.Data(), vals)
	dec := encodeDecode(t, func(e *wireEnc) { e.matrix(m, false) })
	got := dec.matrix()
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, v := range got.Data() {
		if math.Float64bits(v) != math.Float64bits(vals[i]) {
			t.Fatalf("element %d: bits %x -> %x", i, math.Float64bits(vals[i]), math.Float64bits(v))
		}
	}
	got.Release()
}

func TestWireMatrixCodecFloat32(t *testing.T) {
	m := tensor.New(4, 3)
	data := m.Data()
	for i := range data {
		data[i] = math.Sin(float64(i) * 1.7)
	}
	dec := encodeDecode(t, func(e *wireEnc) { e.matrix(m, true) })
	got := dec.matrix()
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, v := range got.Data() {
		// f32 mode must round each element through float32 exactly once.
		if v != float64(float32(data[i])) {
			t.Fatalf("element %d: %v -> %v, want float32 rounding", i, data[i], v)
		}
	}
	got.Release()
}

func TestWireCVBatchCodecRoundTrip(t *testing.T) {
	in := &condvec.Batch{
		CV:      tensor.FromRows([][]float64{{1, 0, 0}, {0, 0, 1}}),
		Rows:    []int{12, 99},
		Choices: []condvec.Choice{{Span: 0, Category: 1}, {Span: 2, Category: 0}},
	}
	dec := encodeDecode(t, func(e *wireEnc) { e.cvBatch(in, false) })
	got := dec.cvBatch()
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !got.CV.Equal(in.CV) {
		t.Fatal("CV matrix changed")
	}
	if len(got.Rows) != 2 || got.Rows[0] != 12 || got.Rows[1] != 99 {
		t.Fatalf("rows %v", got.Rows)
	}
	if len(got.Choices) != 2 || got.Choices[1] != in.Choices[1] {
		t.Fatalf("choices %v", got.Choices)
	}
	got.CV.Release()
}

func TestWireTableCodecRoundTrip(t *testing.T) {
	specs := []encoding.ColumnSpec{
		{Name: "segment", Kind: encoding.KindCategorical, Categories: []string{"a", "b", "c"}},
		{Name: "spend", Kind: encoding.KindContinuous, SpecialValues: []float64{-1, 0}},
	}
	data := tensor.FromRows([][]float64{{0, 1.5}, {2, -1}})
	tbl, err := encoding.NewTable(specs, data)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	dec := encodeDecode(t, func(e *wireEnc) { e.table(tbl, false) })
	gotSpecs := encoding.ReadSpecs(&dec.Reader)
	gotData := dec.matrix()
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(gotSpecs) != 2 || gotSpecs[0].Name != "segment" ||
		len(gotSpecs[0].Categories) != 3 || gotSpecs[0].Categories[2] != "c" ||
		gotSpecs[1].Kind != encoding.KindContinuous || len(gotSpecs[1].SpecialValues) != 2 {
		t.Fatalf("specs round trip %+v", gotSpecs)
	}
	if !gotData.Equal(data) {
		t.Fatal("table data changed")
	}
	gotData.Release()
}

func TestWireSetupCodecRoundTrip(t *testing.T) {
	in := Setup{
		Plan:          Plan{DiscServer: 2, DiscClient: 1, GenServer: 0, GenClient: 2},
		SliceWidth:    64,
		GenBlockWidth: 128,
		DiscWidth:     256,
		LR:            5e-4,
		Seed:          42,
	}
	dec := encodeDecode(t, func(e *wireEnc) { e.setup(in) })
	got := dec.setup()
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != in {
		t.Fatalf("setup round trip %+v -> %+v", in, got)
	}
}

// TestWireDecRejectsTruncation verifies the decoder's sticky error turns
// every truncation into a descriptive failure instead of a panic, at every
// possible cut point of a realistic payload.
func TestWireDecRejectsTruncation(t *testing.T) {
	// One matrix per layout so every decode path sees every cut point:
	// dense, one-hot, bitmap (multi-hot 0/1), sparse (index list) and masked.
	sparse := tensor.New(3, 16)
	sparse.Set(0, 4, 2.5)
	sparse.Set(2, 11, -7)
	enc := newWireEnc()
	enc.matrix(tensor.FromRows([][]float64{{1, 2}, {3, 4}}), false)
	enc.matrix(tensor.FromRows([][]float64{{0, 1, 0}, {0, 0, 1}}), false)
	enc.matrix(tensor.FromRows([][]float64{{1, 1, 0, 1}, {0, 1, 1, 1}}), false)
	enc.matrix(sparse, false)
	enc.matrix(goldenMaskedLogits(), false)
	enc.ints([]int{3, 1, 4})
	enc.VarString("hello")
	full := append([]byte(nil), enc.Buf...)
	enc.release()

	decodeAll := func(dec *wireDec) {
		for i := 0; i < 5; i++ {
			if m := dec.matrix(); m != nil {
				m.Release()
			}
		}
		dec.ints()
		dec.str()
	}
	for cut := 0; cut < len(full); cut++ {
		dec := newWireDec(full[:cut])
		decodeAll(dec)
		if err := dec.Finish(); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", cut, len(full))
		}
	}
	// The full payload must still decode cleanly.
	dec := newWireDec(full)
	decodeAll(dec)
	if err := dec.Finish(); err != nil {
		t.Fatalf("full payload: %v", err)
	}
}

// TestWireSnapDeltaRejectsTruncation cuts a delta snapshot response body at
// every byte; the decoder must fail (or the crc must catch it) every time.
func TestWireSnapDeltaRejectsTruncation(t *testing.T) {
	base := bytes.Repeat([]byte{0x5C}, 96)
	cur := append([]byte(nil), base...)
	for _, i := range []int{0, 17, 18, 19, 60, 95} {
		cur[i] ^= 0xFF
	}
	enc := newWireEnc()
	enc.Uvarint(uint64(len(cur)))
	appendSnapDeltaOps(enc, base, cur)
	full := append([]byte(nil), enc.Buf...)
	enc.release()

	for cut := 0; cut < len(full); cut++ {
		dec := newWireDec(full[:cut])
		newLen := int(dec.Uvarint())
		blob := decodeSnapDelta(dec, base, newLen)
		if err := dec.Finish(); err == nil && bytes.Equal(blob, cur) {
			t.Fatalf("truncation at %d/%d bytes reassembled the full blob", cut, len(full))
		}
	}
	dec := newWireDec(full)
	newLen := int(dec.Uvarint())
	blob := decodeSnapDelta(dec, base, newLen)
	if err := dec.Finish(); err != nil {
		t.Fatalf("full delta body: %v", err)
	}
	if !bytes.Equal(blob, cur) {
		t.Fatal("full delta body reassembled the wrong blob")
	}
}

func TestWireDecRejectsTrailingBytes(t *testing.T) {
	enc := newWireEnc()
	enc.I64(5)
	enc.U8(0xFF) // junk the decoder never consumes
	dec := newWireDec(enc.Buf)
	_ = dec.I64()
	if err := dec.Finish(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-bytes error, got %v", err)
	}
	enc.release()
}

// FuzzWireFrameDecode feeds arbitrary bytes through the frame reader and
// every payload decoder. The contract: malformed input may fail, but must
// never panic or over-allocate past the payload bound.
func FuzzWireFrameDecode(f *testing.F) {
	for _, frame := range goldenWireFrames() {
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		h, payload, err := readWireFrame(bytes.NewReader(raw))
		if err != nil {
			return
		}
		defer putWireBuf(payload)
		_ = wireMethodName(h.method)
		// Walk the payload with every decoder shape the protocol uses; each
		// gets a fresh decoder since they consume different field layouts.
		for _, decode := range []func(*wireDec){
			func(d *wireDec) {
				if m := d.matrix(); m != nil {
					m.Release()
				}
			},
			func(d *wireDec) {
				b := d.cvBatch()
				if b.CV != nil {
					b.CV.Release()
				}
			},
			func(d *wireDec) { _ = encoding.ReadSpecs(&d.Reader) },
			func(d *wireDec) { _ = d.setup() },
			func(d *wireDec) { _ = d.clientInfo() },
			func(d *wireDec) { _ = d.str() },
			func(d *wireDec) { _ = d.ints() },
			func(d *wireDec) {
				// The delta snapshot response body: form, epoch, then
				// either a plain blob or crc + length + ops.
				switch d.U8() {
				case wireSnapFull:
					_ = d.Uvarint()
					_ = d.bytes()
				case wireSnapDelta:
					_ = d.Uvarint()
					_ = d.U32()
					newLen := int(d.Uvarint())
					if d.Err() == nil && newLen >= 0 && newLen <= len(payload) {
						base := make([]byte, newLen)
						_ = decodeSnapDelta(d, base, newLen)
					}
				}
			},
		} {
			d := newWireDec(payload)
			decode(d)
			_ = d.Finish()
		}
	})
}

// --- transport behavior over real TCP ---

// serveWire starts a gtvwire server for c and returns a connected proxy.
func serveWire(t testing.TB, c Client) *WireClient {
	t.Helper()
	addr := serveWireListener(t, c)
	proxy, err := DialWireClientPolicy("tcp", addr, CallPolicy{})
	if err != nil {
		t.Fatalf("dial wire: %v", err)
	}
	t.Cleanup(func() { proxy.Close() })
	return proxy
}

func serveWireListener(t testing.TB, c Client) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		// Listener close ends the serve loop; connection errors surface on
		// the client side, so they are safe to drop here.
		_ = ServeClientWire(lis, c)
	}()
	return lis.Addr().String()
}

func TestWireEndToEndTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("networked GAN training in -short mode")
	}
	ta, tb := twoClientTables(t, 200, 21)
	coord := NewShuffleCoordinator(77)
	la := newLocal(t, ta, coord, 1)
	lb := newLocal(t, tb, coord, 2)
	pa := serveWire(t, la)
	pb := serveWire(t, lb)

	cfg := DefaultConfig()
	cfg.Plan = Plan{DiscServer: 2, GenClient: 2}
	cfg.Rounds = 3
	cfg.DiscSteps = 2
	cfg.BatchSize = 32
	cfg.NoiseDim = 16
	cfg.BlockDim = 32
	srv, err := NewServer([]Client{pa, pb}, cfg)
	if err != nil {
		t.Fatalf("NewServer over wire: %v", err)
	}
	if err := srv.Train(nil); err != nil {
		t.Fatalf("Train over wire: %v", err)
	}
	synth, err := srv.Synthesize(50)
	if err != nil {
		t.Fatalf("Synthesize over wire: %v", err)
	}
	if synth.Rows() != 50 || synth.Cols() != 3 {
		t.Fatalf("synthetic shape %dx%d", synth.Rows(), synth.Cols())
	}
	if synth.Data.HasNaN() {
		t.Fatal("synthetic data has NaN")
	}
}

// TestWireFaithfulMode runs the faithful real pass over the network: the
// non-contributor's full-table logits — the largest frames the protocol
// has — cross gtvwire, and the server row-selects them.
func TestWireFaithfulMode(t *testing.T) {
	if testing.Short() {
		t.Skip("networked GAN training in -short mode")
	}
	ta, tb := twoClientTables(t, 120, 31)
	coord := NewShuffleCoordinator(88)
	la := newLocal(t, ta, coord, 1)
	lb := newLocal(t, tb, coord, 2)
	pa := serveWire(t, la)
	pb := serveWire(t, lb)

	cfg := DefaultConfig()
	cfg.Plan = Plan{DiscServer: 1, DiscClient: 1, GenServer: 1, GenClient: 1}
	cfg.Rounds = 2
	cfg.DiscSteps = 1
	cfg.BatchSize = 16
	cfg.NoiseDim = 8
	cfg.BlockDim = 16
	cfg.FaithfulRealPass = true
	srv, err := NewServer([]Client{pa, pb}, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if _, _, err := srv.TrainRound(); err != nil {
		t.Fatalf("TrainRound: %v", err)
	}
}

// TestWireFloat32Training opts a full loopback run into the f32 payload
// encoding and verifies training still converges to finite parameters —
// the lossy mode changes precision, never protocol correctness.
func TestWireFloat32Training(t *testing.T) {
	if testing.Short() {
		t.Skip("networked GAN training in -short mode")
	}
	ta, tb := twoClientTables(t, 120, 61)
	coord := NewShuffleCoordinator(99)
	la := newLocal(t, ta, coord, 1)
	lb := newLocal(t, tb, coord, 2)
	pa := serveWire(t, la)
	pb := serveWire(t, lb)
	pa.SetFloat32(true)
	pb.SetFloat32(true)

	cfg := DefaultConfig()
	cfg.Plan = Plan{DiscServer: 2, GenClient: 2}
	cfg.Rounds = 2
	cfg.DiscSteps = 1
	cfg.BatchSize = 16
	cfg.NoiseDim = 8
	cfg.BlockDim = 16
	srv, err := NewServer([]Client{pa, pb}, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := srv.Train(nil); err != nil {
		t.Fatalf("Train with f32 payloads: %v", err)
	}
	synth, err := srv.Synthesize(20)
	if err != nil {
		t.Fatalf("Synthesize with f32 payloads: %v", err)
	}
	if synth.Data.HasNaN() {
		t.Fatal("f32 payload mode produced NaN")
	}
}

func TestWireErrorPropagation(t *testing.T) {
	ta, _ := twoClientTables(t, 60, 41)
	coord := NewShuffleCoordinator(55)
	la := newLocal(t, ta, coord, 1)
	proxy := serveWire(t, la)
	// Forward before configure must fail across the wire with the remote
	// error message, and the connection must survive for later calls.
	if _, err := proxy.ForwardSynthetic(tensor.New(2, 4), PhaseDiscriminator); err == nil {
		t.Fatal("expected remote error")
	}
	if _, err := proxy.Publish(); err == nil {
		t.Fatal("expected remote error")
	}
	if _, err := proxy.Info(); err != nil {
		t.Fatalf("connection should survive application errors: %v", err)
	}
}

// TestWirePipelining issues many concurrent calls on ONE WireClient against
// a delay-injected client and verifies they overlap on the single
// connection: total wall-clock stays near one delay, not the sum. The race
// detector runs this test in CI (see ci.sh).
func TestWirePipelining(t *testing.T) {
	ta, _ := twoClientTables(t, 60, 43)
	coord := NewShuffleCoordinator(31)
	la := newLocal(t, ta, coord, 1)
	const delay = 150 * time.Millisecond
	slow := NewFaultyTransport(la)
	slow.SetDelay(delay)
	proxy := serveWire(t, slow)

	const calls = 8
	var wg sync.WaitGroup
	errs := make([]error, calls)
	start := time.Now()
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = proxy.Info()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pipelined call %d: %v", i, err)
		}
	}
	// Serialized calls would take >= calls*delay = 1.2s. Pipelined calls
	// share the delay window; half the serial time is a loose bound that
	// still proves overlap on a loaded CI machine.
	if elapsed >= calls*delay/2 {
		t.Fatalf("%d concurrent calls took %v — the wire is serializing, not pipelining", calls, elapsed)
	}
}

// serveWireKillable serves a client over gtvwire and returns a function
// severing every live connection while keeping the listener up — the
// "client process restarted" scenario redial must recover from.
func serveWireKillable(t *testing.T, c Client) (addr string, killConns func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { lis.Close() })
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go serveWireConn(conn, c)
		}
	}()
	killConns = func() {
		mu.Lock()
		for _, cn := range conns {
			cn.Close()
		}
		conns = nil
		mu.Unlock()
	}
	return lis.Addr().String(), killConns
}

// TestWireRedialAfterDisconnect severs the connection mid-session and
// verifies the retry policy transparently redials: the next call succeeds
// on a fresh connection without the caller seeing the fault.
func TestWireRedialAfterDisconnect(t *testing.T) {
	ta, _ := twoClientTables(t, 60, 47)
	coord := NewShuffleCoordinator(21)
	la := newLocal(t, ta, coord, 1)
	addr, killConns := serveWireKillable(t, la)
	policy := CallPolicy{Timeout: 5 * time.Second, MaxAttempts: 3, Backoff: 10 * time.Millisecond}
	proxy, err := DialWireClientPolicy("tcp", addr, policy)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { proxy.Close() })

	if _, err := proxy.Info(); err != nil {
		t.Fatalf("Info before disconnect: %v", err)
	}
	killConns()
	if _, err := proxy.Info(); err != nil {
		t.Fatalf("Info after disconnect should succeed via redial: %v", err)
	}
}

// TestWirePeerDiesBetweenRounds kills one client process for good between
// rounds — its listener shut and, with it, every connection it served —
// and verifies the next round fails within the retry budget with an error
// naming the dead client, instead of hanging the server.
// TestWireRedialAfterDisconnect is the other half: a peer that comes back.
func TestWirePeerDiesBetweenRounds(t *testing.T) {
	ta, tb := twoClientTables(t, 100, 91)
	coord := NewShuffleCoordinator(12)
	la := newLocal(t, ta, coord, 1)
	lb := newLocal(t, tb, coord, 2)
	pa := serveWire(t, la)
	lisB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	servedB := make(chan error, 1)
	go func() { servedB <- ServeClientWire(lisB, lb) }()
	addrB := lisB.Addr().String()
	policy := CallPolicy{Timeout: 5 * time.Second, MaxAttempts: 2, Backoff: 10 * time.Millisecond}
	pb, err := DialWireClientPolicy("tcp", addrB, policy)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { pb.Close() })

	cfg := DefaultConfig()
	cfg.Plan = Plan{DiscServer: 2, GenClient: 2}
	cfg.Rounds = 2
	cfg.DiscSteps = 1
	cfg.BatchSize = 16
	cfg.NoiseDim = 8
	cfg.BlockDim = 16
	srv, err := NewServer([]Client{pa, pb}, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if _, _, err := srv.TrainRound(); err != nil {
		t.Fatalf("round 1 with both clients alive: %v", err)
	}

	// The serve loop closes every connection it accepted on its way out.
	lisB.Close()
	if err := <-servedB; err != nil {
		t.Fatalf("serve loop: %v", err)
	}
	start := time.Now()
	_, _, err = srv.TrainRound()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("round 2 must fail after client B died")
	}
	if !strings.Contains(err.Error(), addrB) {
		t.Fatalf("error should name the dead client %s: %v", addrB, err)
	}
	// Budget: 2 fast-failing attempts plus backoff, far under the 5s
	// per-call deadline; 10s leaves slack for a loaded CI machine.
	if elapsed > 10*time.Second {
		t.Fatalf("dead client stalled the round for %v", elapsed)
	}
}

// TestWireSlowClientTripsDeadline serves a delay-injected client over real
// TCP: a short per-call deadline converts the slow reply into
// ErrCallTimeout naming the client, well within the test's budget.
func TestWireSlowClientTripsDeadline(t *testing.T) {
	ta, _ := twoClientTables(t, 60, 43)
	coord := NewShuffleCoordinator(31)
	la := newLocal(t, ta, coord, 1)
	slow := NewFaultyTransport(la)
	slow.SetDelay(2 * time.Second)
	addr := serveWireListener(t, slow)
	proxy, err := DialWireClientPolicy("tcp", addr, CallPolicy{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { proxy.Close() })

	start := time.Now()
	_, err = proxy.Info()
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("want ErrCallTimeout from slow client, got: %v", err)
	}
	if !strings.Contains(err.Error(), addr) {
		t.Fatalf("timeout should name the slow client %s: %v", addr, err)
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("deadline did not cut the 2s slow call short: took %v", elapsed)
	}
}

// TestWireBytesMatchesEstimate trains over loopback gtvwire and checks the
// measured framed bytes against the 8 B/element payload model: the
// measurement must exceed the estimate (headers, matrix metadata, CV row
// indices) but stay within the same order — the model is supposed to be an
// accurate first-order predictor of real traffic.
func TestWireBytesMatchesEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("networked GAN training in -short mode")
	}
	// A wide categorical column (32 categories) makes the CV batch the
	// realistic kind of sparse payload the one-hot layout exists for; the
	// tiny two-category tables would let per-row varint overhead (row
	// indices, choices) mask the matrix compression.
	const rows = 120
	rng := rand.New(rand.NewSource(71))
	cats := make([]string, 32)
	for i := range cats {
		cats[i] = fmt.Sprintf("c%02d", i)
	}
	da := tensor.New(rows, 2)
	db := tensor.New(rows, 1)
	for i := 0; i < rows; i++ {
		c := float64(rng.Intn(len(cats)))
		da.Set(i, 0, c)
		da.Set(i, 1, rng.NormFloat64()+c/8)
		db.Set(i, 0, rng.NormFloat64()-c/8)
	}
	ta, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "segment", Kind: encoding.KindCategorical, Categories: cats},
		{Name: "spend", Kind: encoding.KindContinuous},
	}, da)
	if err != nil {
		t.Fatalf("NewTable A: %v", err)
	}
	tb, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "income", Kind: encoding.KindContinuous},
	}, db)
	if err != nil {
		t.Fatalf("NewTable B: %v", err)
	}
	coord := NewShuffleCoordinator(17)
	la := newLocal(t, ta, coord, 1)
	lb := newLocal(t, tb, coord, 2)
	pa := serveWire(t, la)
	pb := serveWire(t, lb)

	cfg := DefaultConfig()
	cfg.Plan = Plan{DiscServer: 2, GenClient: 2}
	cfg.Rounds = 3
	cfg.DiscSteps = 2
	cfg.BatchSize = 32
	cfg.NoiseDim = 16
	cfg.BlockDim = 32
	srv, err := NewServer([]Client{pa, pb}, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := srv.Train(nil); err != nil {
		t.Fatalf("Train: %v", err)
	}
	stats := srv.CommStats()
	est := stats.Total()
	got := stats.WireBytes
	if est <= 0 || got <= 0 {
		t.Fatalf("stats did not accumulate: estimate %d, wire %d", est, got)
	}
	// Density-aware bounds. The estimate is a deliberately dense model
	// (8 B/element for every payload matrix), while the wire picks layouts
	// per frame: generator slices and gradients stay dense (so framing
	// overhead pushes their measurement above the estimate), the critic
	// logits a Dropout(0.5) has been over travel masked at a little over
	// half that, and one-hot CV batches compress to about a byte per row.
	// The total therefore sits inside a sandwich: above half the dense
	// estimate (dense traffic dominates this run), below 2x (framing
	// overhead bounded).
	if 2*got <= est {
		t.Fatalf("measured wire bytes %d under half the estimate %d — dense frames went missing", got, est)
	}
	if got > 2*est {
		t.Fatalf("measured wire bytes %d more than doubles the estimate %d — framing overhead out of control", got, est)
	}
	// The per-method attribution must account for every measured byte.
	var byMethod int64
	for _, v := range stats.WireBytesByMethod {
		byMethod += v
	}
	if byMethod != got {
		t.Fatalf("per-method tally %d != total wire bytes %d", byMethod, got)
	}
	// The one-hot CV layout is where density pays: the measured SampleCV
	// traffic (headers, row indices and choices included) must undercut the
	// dense 8 B/element CV estimate by at least 5x.
	cvWire := stats.WireBytesByMethod[wireMethodSampleCV]
	if cvWire <= 0 || stats.CVBytes <= 0 {
		t.Fatalf("CV traffic did not accumulate: wire %d, estimate %d", cvWire, stats.CVBytes)
	}
	if 5*cvWire >= stats.CVBytes {
		t.Fatalf("SampleCV wire bytes %d not 5x under the dense estimate %d — one-hot layout not engaged", cvWire, stats.CVBytes)
	}
	if err := pa.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// WireBytes must survive Close: it reports lifetime traffic.
	if pa.WireBytes() == 0 {
		t.Fatal("WireBytes lost after Close")
	}
	// And a CommStats snapshot String must carry both figures.
	s := stats.String()
	if !strings.Contains(s, "wire=") || !strings.Contains(s, "total=") {
		t.Fatalf("CommStats.String missing estimate or measurement: %s", s)
	}
}

// TestWireFaultyTransportComposition stacks a WireClient under the fault
// injector and the policy wrapper, confirming that both byte counters pass
// through every layer of decoration: a Server over the stack must report a
// per-method tally that accounts for every measured byte. (WithPolicy used
// to forward WireBytes alone, leaving a non-zero total over an all-zero
// breakdown.)
func TestWireFaultyTransportComposition(t *testing.T) {
	ta, tb := twoClientTables(t, 60, 83)
	coord := NewShuffleCoordinator(13)
	la := newLocal(t, ta, coord, 1)
	lb := newLocal(t, tb, coord, 2)
	inner := serveWire(t, la)
	faulty := NewFaultyTransport(inner)
	if _, err := faulty.Info(); err != nil {
		t.Fatalf("Info through fault injector: %v", err)
	}
	var counter WireByteCounter = faulty
	if counter.WireBytes() == 0 {
		t.Fatal("FaultyTransport should forward the inner transport's WireBytes")
	}
	if counter.WireBytes() != inner.WireBytes() {
		t.Fatalf("WireBytes passthrough mismatch: %d vs %d", counter.WireBytes(), inner.WireBytes())
	}

	policy := CallPolicy{Timeout: 5 * time.Second, MaxAttempts: 2, Backoff: time.Millisecond}
	cfg := DefaultConfig()
	cfg.Plan = Plan{DiscServer: 2, GenClient: 2}
	cfg.Rounds = 1
	cfg.DiscSteps = 1
	cfg.BatchSize = 16
	cfg.NoiseDim = 8
	cfg.BlockDim = 16
	srv, err := NewServer([]Client{
		WithPolicy(faulty, "A", policy),
		WithPolicy(NewFaultyTransport(serveWire(t, lb)), "B", policy),
	}, cfg)
	if err != nil {
		t.Fatalf("NewServer over the decorated stack: %v", err)
	}
	if _, _, err := srv.TrainRound(); err != nil {
		t.Fatalf("TrainRound over the decorated stack: %v", err)
	}
	stats := srv.CommStats()
	if stats.WireBytes == 0 {
		t.Fatal("WireBytes lost under WithPolicy(FaultyTransport(WireClient))")
	}
	var byMethod int64
	for _, v := range stats.WireBytesByMethod {
		byMethod += v
	}
	if byMethod != stats.WireBytes {
		t.Fatalf("per-method tally %d != total wire bytes %d under the decorated stack", byMethod, stats.WireBytes)
	}
}
