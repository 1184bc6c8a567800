package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// --- golden fixtures ---

// goldenSnapshot builds the pinned fixture image exercising every codec
// primitive, including a repeated section id (the per-client blob shape)
// and a nil matrix (an untouched Adam moment). Regenerate with
//
//	GTV_UPDATE_SNAP_FIXTURES=1 go test ./internal/snap -run TestGoldenSnapshot
//
// and treat any diff in testdata as an incompatible format change that
// must bump Version.
func goldenSnapshot() []byte {
	b := NewBuilder(KindCentralized)
	b.Section(1, func(e *Enc) {
		e.U8(7)
		e.U32(0xdeadbeef)
		e.I64(-42)
		e.F64(3.5)
		e.Bool(true)
		e.Bytes([]byte("gtvsnap"))
		e.Bytes([]byte{1, 2, 3})
	})
	b.Section(2, func(e *Enc) {
		e.U32(3) // a length-prefixed int list
		for _, v := range []int64{-1, 0, 7} {
			e.I64(v)
		}
		e.U64s([]uint64{1, 1 << 40})
		e.Matrix(tensor.FromRows([][]float64{{1, -2.5}, {0.125, 4096}}))
		e.Matrix(nil)
	})
	b.Section(2, func(e *Enc) {
		e.Bytes([]byte("repeated id"))
	})
	return b.Bytes()
}

const goldenFixture = "golden.gtvsnap"

func TestGoldenSnapshot(t *testing.T) {
	path := filepath.Join("testdata", goldenFixture)
	want := goldenSnapshot()
	if os.Getenv("GTV_UPDATE_SNAP_FIXTURES") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatalf("writing fixture: %v", err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture %s (regenerate with GTV_UPDATE_SNAP_FIXTURES=1): %v", goldenFixture, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("encoder output diverged from the pinned fixture bytes — this is a snapshot format break; bump snap.Version")
	}
}

// TestGoldenSnapshotDecode decodes the pinned bytes back into values,
// holding the decoder to the same contract as the encoder.
func TestGoldenSnapshotDecode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", goldenFixture))
	if err != nil {
		t.Fatalf("reading fixture (regenerate with GTV_UPDATE_SNAP_FIXTURES=1): %v", err)
	}
	s, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if s.Kind != KindCentralized {
		t.Fatalf("kind = %d, want %d", s.Kind, KindCentralized)
	}
	if len(s.Sections) != 3 {
		t.Fatalf("decoded %d sections, want 3", len(s.Sections))
	}

	d, err := s.Need(1, "scalars")
	if err != nil {
		t.Fatalf("Need(1): %v", err)
	}
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d, want 7", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x, want 0xdeadbeef", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d, want -42", got)
	}
	if got := d.F64(); got != 3.5 { //lint:ignore floateq the fixture pins exact bits
		t.Errorf("F64 = %v, want 3.5", got)
	}
	if !d.Bool() {
		t.Error("Bool = false, want true")
	}
	if got := string(d.Bytes()); got != "gtvsnap" {
		t.Errorf("Bytes = %q, want gtvsnap", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v, want [1 2 3]", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish(scalars): %v", err)
	}

	d, err = s.Need(2, "slices")
	if err != nil {
		t.Fatalf("Need(2): %v", err)
	}
	if n := d.U32(); n != 3 {
		t.Errorf("int list length %d, want 3", n)
	}
	for _, want := range []int64{-1, 0, 7} {
		if got := d.I64(); got != want {
			t.Errorf("int list element %d, want %d", got, want)
		}
	}
	if n := d.U32(); n != 2 {
		t.Errorf("U64s length %d, want 2", n)
	}
	for _, want := range []uint64{1, 1 << 40} {
		if got := d.U64(); got != want {
			t.Errorf("U64s element %d, want %d", got, want)
		}
	}
	m := d.Matrix()
	if m == nil {
		t.Fatal("Matrix = nil, want 2x2")
	}
	defer m.Release()
	wantM := [][]float64{{1, -2.5}, {0.125, 4096}}
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatalf("matrix shape %dx%d, want 2x2", m.Rows(), m.Cols())
	}
	for i := range wantM {
		for j := range wantM[i] {
			if m.At(i, j) != wantM[i][j] { //lint:ignore floateq the fixture pins exact bits
				t.Errorf("matrix(%d,%d) = %v, want %v", i, j, m.At(i, j), wantM[i][j])
			}
		}
	}
	if nilM := d.Matrix(); nilM != nil {
		t.Error("nil matrix did not round-trip as nil")
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish(slices): %v", err)
	}

	reps := s.All(2)
	if len(reps) != 2 {
		t.Fatalf("All(2) returned %d payloads, want 2", len(reps))
	}
	if got := string(NewDec(reps[1]).Bytes()); got != "repeated id" {
		t.Errorf("repeated section Bytes = %q", got)
	}
}

// --- framing defenses ---

// sectionBoundaries returns every prefix length at which a snapshot image
// is self-consistent: the header boundary and the end of each section.
func sectionBoundaries(t *testing.T, data []byte) map[int]bool {
	t.Helper()
	ok := map[int]bool{headerLen: true}
	off := headerLen
	for off < len(data) {
		n := int(binary.LittleEndian.Uint64(data[off+1 : off+9]))
		off += sectionOverhead + n
		ok[off] = true
	}
	if off != len(data) {
		t.Fatalf("section walk ended at %d of %d", off, len(data))
	}
	return ok
}

// TestDecodeTruncationEveryCutPoint truncates the golden image at every
// byte offset. Cuts that land exactly on a section boundary yield a valid
// shorter file (restore paths then reject it for missing sections); every
// other cut must fail decoding outright, never panic, and never
// misattribute bytes to the wrong section.
func TestDecodeTruncationEveryCutPoint(t *testing.T) {
	data := goldenSnapshot()
	boundary := sectionBoundaries(t, data)
	for i := 0; i < len(data); i++ {
		s, err := Decode(data[:i])
		if boundary[i] {
			if err != nil {
				t.Fatalf("cut at section boundary %d: %v", i, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("cut at %d of %d decoded %d sections without error", i, len(data), len(s.Sections))
		}
	}
}

// TestDecodeTrailingBytes rejects any bytes after the last full section.
func TestDecodeTrailingBytes(t *testing.T) {
	data := append(goldenSnapshot(), 0xff)
	if _, err := Decode(data); err == nil {
		t.Fatal("Decode accepted a trailing byte after the last section")
	}
}

// TestDecodeCRCCorruption flips one payload bit and requires the error to
// name the corrupted section.
func TestDecodeCRCCorruption(t *testing.T) {
	data := goldenSnapshot()
	corrupt := append([]byte(nil), data...)
	corrupt[headerLen+sectionOverhead] ^= 0x01 // first payload byte of section 1
	_, err := Decode(corrupt)
	if err == nil {
		t.Fatal("Decode accepted a corrupted payload")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("section 1 CRC")) {
		t.Fatalf("CRC error does not name the corrupted section: %v", err)
	}
}

// TestDecodeHeaderDefenses covers bad magic, unknown version, and unknown
// kind.
func TestDecodeHeaderDefenses(t *testing.T) {
	good := goldenSnapshot()

	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Error("Decode accepted bad magic")
	}

	bad = append([]byte(nil), good...)
	bad[6] = Version + 1
	if _, err := Decode(bad); err == nil {
		t.Error("Decode accepted an unknown version")
	}

	bad = append([]byte(nil), good...)
	bad[7] = 0
	if _, err := Decode(bad); err == nil {
		t.Error("Decode accepted an unknown kind")
	}
}

// TestDecLengthBounds pins the allocation defense: a length prefix larger
// than the bytes behind it fails instead of allocating.
func TestDecLengthBounds(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0x7f} // u32 length ~2^31 with no data behind it
	if NewDec(huge).Bytes() != nil {
		t.Error("Bytes accepted a length prefix exceeding the section")
	}
	// Matrix: present tag, huge shape, no elements.
	e := &Enc{}
	e.U8(1)
	e.U32(1 << 20)
	e.U32(1 << 20)
	if NewDec(e.Buf).Matrix() != nil {
		t.Error("Matrix accepted a shape exceeding the section")
	}
}

// --- checkpoint files ---

// readFile loads and decodes a snapshot file.
func readFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

func TestWriteReadFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := CheckpointPath(dir, 3)
	data := goldenSnapshot()
	if err := WriteFileAtomic(path, data); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	s, err := readFile(path)
	if err != nil {
		t.Fatalf("readFile: %v", err)
	}
	if len(s.Sections) != 3 {
		t.Fatalf("round-tripped %d sections, want 3", len(s.Sections))
	}
}

// failAfter passes through n bytes then fails, simulating a disk filling
// up (or a crash) mid-checkpoint.
type failAfter struct {
	w io.Writer
	n int
}

var errDiskFull = errors.New("injected write failure")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return f.w.Write(p)
	}
	wrote, _ := f.w.Write(p[:f.n])
	f.n = 0
	return wrote, errDiskFull
}

// TestCrashSafetyPreservesPreviousCheckpoint is the atomicity contract: a
// write failure partway through replacing a checkpoint leaves the previous
// file byte-identical and decodable, and leaves no temp litter behind.
func TestCrashSafetyPreservesPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := CheckpointPath(dir, 1)
	previous := goldenSnapshot()
	if err := WriteFileAtomic(path, previous); err != nil {
		t.Fatalf("writing previous checkpoint: %v", err)
	}

	next := NewBuilder(KindServer)
	next.Section(1, func(e *Enc) { e.Bytes([]byte("the doomed successor")) })
	err := writeFileAtomic(path, next.Bytes(), func(w io.Writer) io.Writer {
		return &failAfter{w: w, n: 5}
	})
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("writeFileAtomic error = %v, want the injected failure", err)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("previous checkpoint unreadable after failed write: %v", err)
	}
	if !bytes.Equal(got, previous) {
		t.Fatal("previous checkpoint bytes changed after a failed write")
	}
	if _, err := readFile(path); err != nil {
		t.Fatalf("previous checkpoint no longer decodes: %v", err)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, ".gtvsnap-*.tmp"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	if len(tmps) != 0 {
		t.Fatalf("failed write left temp files behind: %v", tmps)
	}
}

// TestWriteFileAtomicReplaces overwrites an existing checkpoint in place.
func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := CheckpointPath(dir, 1)
	if err := WriteFileAtomic(path, goldenSnapshot()); err != nil {
		t.Fatalf("first write: %v", err)
	}
	b := NewBuilder(KindClient)
	b.Section(1, func(e *Enc) { e.I64(99) })
	if err := WriteFileAtomic(path, b.Bytes()); err != nil {
		t.Fatalf("second write: %v", err)
	}
	s, err := readFile(path)
	if err != nil {
		t.Fatalf("readFile: %v", err)
	}
	if s.Kind != KindClient {
		t.Fatalf("kind after replace = %d, want %d", s.Kind, KindClient)
	}
}

func TestLatestCheckpoint(t *testing.T) {
	dir := t.TempDir()

	// Missing directory and empty directory both mean "start fresh".
	if _, _, ok, err := LatestCheckpoint(filepath.Join(dir, "absent")); err != nil || ok {
		t.Fatalf("missing dir: ok=%v err=%v, want ok=false err=nil", ok, err)
	}
	if _, _, ok, err := LatestCheckpoint(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v, want ok=false err=nil", ok, err)
	}

	// Zero-padding keeps numeric and lexical order aligned: round 10 must
	// beat round 2.
	for _, r := range []int{2, 10} {
		if err := WriteFileAtomic(CheckpointPath(dir, r), goldenSnapshot()); err != nil {
			t.Fatalf("writing round %d: %v", r, err)
		}
	}
	// Stray files are ignored.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatalf("writing stray file: %v", err)
	}

	path, rounds, ok, err := LatestCheckpoint(dir)
	if err != nil || !ok {
		t.Fatalf("LatestCheckpoint: ok=%v err=%v", ok, err)
	}
	if rounds != 10 {
		t.Fatalf("rounds = %d, want 10", rounds)
	}
	if path != CheckpointPath(dir, 10) {
		t.Fatalf("path = %s, want %s", path, CheckpointPath(dir, 10))
	}
}

// --- fuzzing ---

// FuzzSnapshotDecode feeds arbitrary bytes through Decode and, when a file
// parses, through every composite the section codec adds to the shared
// reader (whose primitives internal/binfmt fuzzes). Nothing here may panic,
// and no length field may drive allocation beyond the input size.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(goldenSnapshot())
	f.Add([]byte{})
	f.Add([]byte("GTVSNP"))
	f.Add(append([]byte("GTVSNP"), Version, KindServer))
	trunc := goldenSnapshot()
	f.Add(trunc[:len(trunc)-3])
	fields := []Field{{"int", int64(-42)}, {"float", 3.5}, {"bool", true}}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		total := 0
		for _, sec := range s.Sections {
			total += len(sec.Payload)
			for _, decode := range []func(*Dec){
				func(d *Dec) { d.Bytes() },
				func(d *Dec) {
					if m := d.Matrix(); m != nil {
						m.Release()
					}
				},
				func(d *Dec) { d.RNG(rng.New(1)) },
				func(d *Dec) { d.Fingerprint(fields) },
			} {
				d := NewDec(sec.Payload)
				decode(d)
				//lint:ignore errdrop the fuzz target only asserts the decoder never panics
				_ = d.Finish()
			}
		}
		if total+headerLen > len(data) {
			t.Fatalf("decoded payloads total %d bytes from a %d-byte input", total, len(data))
		}
	})
}
