// Package snap implements gtvsnap, the versioned binary snapshot format
// behind -checkpoint-dir/-resume: a durable capture of everything the
// training trajectory depends on, pinned byte-for-byte by golden fixtures
// the way testdata/wire pins gtvwire.
//
// A snapshot file is a fixed header followed by length-prefixed sections,
// each integrity-checked independently:
//
//	file    := header section*
//	header  := magic "GTVSNP" | version u8 | kind u8            (8 bytes)
//	section := id u8 | len u64 | payload | crc32(payload) u32   (13+len bytes)
//
// All integers are little-endian, matching gtvwire. The version byte
// covers the whole file layout including every section payload: any
// incompatible change — reordering fields, changing a width, adding a
// mandatory section — bumps Version, and the golden-fixture test fails
// until it is bumped. Section ids are scoped by the kind byte (a server
// snapshot and a client snapshot may reuse an id for different payloads);
// within one kind ids are append-only. The per-section CRC (IEEE CRC-32)
// localizes corruption: a flipped bit in one section names that section in
// the error instead of producing a plausible-but-wrong weight matrix.
//
// Decoding is defensive in the same way the wire codec is: every length is
// bounded by the bytes actually remaining, so a corrupt prefix cannot make
// the reader allocate unboundedly (FuzzSnapshotDecode holds it to that),
// and trailing bytes after the last section are rejected.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/binfmt"
)

const (
	// Version is bumped on any incompatible snapshot-format change.
	// Version 2: server images carry per-method wire-byte tallies in the
	// comm section and the GradTopK error-feedback section (secSTopKEF),
	// and the config fingerprint includes the grad-topk fraction.
	Version = 2
	// headerLen is the fixed file header size: magic, version, kind.
	headerLen = 8
	// sectionOverhead is the per-section framing: id, length, CRC.
	sectionOverhead = 1 + 8 + 4
)

// magic identifies a gtvsnap file; it is deliberately not valid UTF-8-free
// ASCII-only so `file`-style sniffing and humans in hexdumps both spot it.
var magic = [6]byte{'G', 'T', 'V', 'S', 'N', 'P'}

// Snapshot kinds: which trainer state a file captures.
const (
	KindCentralized = 1 // gan.Centralized
	KindServer      = 2 // vfl.Server, including per-client blobs
	KindClient      = 3 // one vfl client's bottom-model state
)

// Section is one decoded snapshot section. Payload aliases the input
// buffer passed to Decode; callers that outlive the buffer must copy.
type Section struct {
	ID      byte
	Payload []byte
}

// Snapshot is one decoded snapshot file.
type Snapshot struct {
	Kind     byte
	Sections []Section
}

// Need returns a decoder over the first section with the given id, or an
// error naming the missing section — the shape restore paths want, where
// every section is mandatory.
func (s *Snapshot) Need(id byte, name string) (*Dec, error) {
	for _, sec := range s.Sections {
		if sec.ID == id {
			return NewDec(sec.Payload), nil
		}
	}
	return nil, fmt.Errorf("gtvsnap: snapshot is missing the %s section (id %d)", name, id)
}

// Read decodes the first section with the given id: Need, the field list
// decode reads (failures stick to the Dec), then Finish, so a section that
// is missing, short, malformed or longer than its decoder is one error.
func (s *Snapshot) Read(id byte, name string, decode func(*Dec)) error {
	d, err := s.Need(id, name)
	if err != nil {
		return err
	}
	decode(d)
	return d.Finish()
}

// All returns the payloads of every section with the given id, in file
// order.
func (s *Snapshot) All(id byte) [][]byte {
	var out [][]byte
	for _, sec := range s.Sections {
		if sec.ID == id {
			out = append(out, sec.Payload)
		}
	}
	return out
}

// Builder accumulates an encoded snapshot in memory. Sections are framed
// as they are added; Bytes returns the finished file image.
type Builder struct {
	buf []byte
}

// NewBuilder starts a snapshot of the given kind.
func NewBuilder(kind byte) *Builder {
	b := &Builder{buf: make([]byte, 0, 1<<16)}
	b.buf = append(b.buf, magic[:]...)
	b.buf = append(b.buf, Version, kind)
	return b
}

// Section appends one section whose payload is produced by encode. The
// length prefix and CRC are filled in after encode runs, so the callback
// just writes fields in order.
func (b *Builder) Section(id byte, encode func(*Enc)) {
	b.buf = append(b.buf, id)
	lenAt := len(b.buf)
	b.buf = append(b.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	e := &Enc{binfmt.Writer{Buf: b.buf}}
	encode(e)
	payload := e.Buf[lenAt+8:]
	binary.LittleEndian.PutUint64(e.Buf[lenAt:], uint64(len(payload)))
	e.U32(crc32.ChecksumIEEE(payload))
	b.buf = e.Buf
}

// Bytes returns the complete encoded snapshot.
func (b *Builder) Bytes() []byte { return b.buf }

// Decode parses and verifies a snapshot image: magic, version, section
// framing and per-section CRCs. Section payloads alias data.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("gtvsnap: truncated header: %d bytes", len(data))
	}
	if [6]byte(data[:6]) != magic {
		return nil, errors.New("gtvsnap: bad magic: not a snapshot file")
	}
	if data[6] != Version {
		return nil, fmt.Errorf("gtvsnap: unsupported snapshot version %d (have %d)", data[6], Version)
	}
	kind := data[7]
	if kind != KindCentralized && kind != KindServer && kind != KindClient {
		return nil, fmt.Errorf("gtvsnap: unknown snapshot kind %d", kind)
	}
	s := &Snapshot{Kind: kind}
	rest := data[headerLen:]
	for len(rest) > 0 {
		if len(rest) < sectionOverhead {
			return nil, fmt.Errorf("gtvsnap: truncated section header: %d trailing bytes", len(rest))
		}
		id := rest[0]
		n := binary.LittleEndian.Uint64(rest[1:9])
		// Bounding by the bytes actually present both rejects truncated
		// files and keeps a corrupt length from driving allocation.
		if n > uint64(len(rest)-sectionOverhead) {
			return nil, fmt.Errorf("gtvsnap: section %d length %d exceeds remaining %d bytes", id, n, len(rest)-sectionOverhead)
		}
		payload := rest[9 : 9+n]
		want := binary.LittleEndian.Uint32(rest[9+n:])
		if got := crc32.ChecksumIEEE(payload); got != want {
			return nil, fmt.Errorf("gtvsnap: section %d CRC mismatch: file %08x, computed %08x", id, want, got)
		}
		s.Sections = append(s.Sections, Section{ID: id, Payload: payload})
		rest = rest[sectionOverhead+n:]
	}
	return s, nil
}

// WriteFileAtomic durably replaces path with data: the bytes go to a
// temporary file in the same directory, are synced, and the temp file is
// renamed over path. A crash or write failure at any point leaves the
// previous file intact — the crash-safety test injects a failing writer
// mid-stream and asserts exactly that.
func WriteFileAtomic(path string, data []byte) error {
	return writeFileAtomic(path, data, nil)
}

// writeFileAtomic is WriteFileAtomic with an injectable writer wrapper so
// tests can force mid-write failures without touching the filesystem
// layer.
func writeFileAtomic(path string, data []byte, wrap func(io.Writer) io.Writer) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".gtvsnap-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	var w io.Writer = f
	if wrap != nil {
		w = wrap(f)
	}
	_, werr := w.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		//lint:ignore errdrop the write failure is the one worth reporting; the temp file is best-effort cleanup
		_ = os.Remove(tmp)
		return fmt.Errorf("gtvsnap: writing %s: %w", path, werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		//lint:ignore errdrop the rename failure is the one worth reporting; the temp file is best-effort cleanup
		_ = os.Remove(tmp)
		return err
	}
	return nil
}

// fileExt is the checkpoint file suffix; CheckpointPath and
// LatestCheckpoint agree on it.
const fileExt = ".gtvsnap"

// CheckpointPath names the checkpoint taken after `rounds` training
// rounds have completed. Zero-padding keeps lexical and numeric order
// identical, so directory listings read in training order.
func CheckpointPath(dir string, rounds int) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%08d%s", rounds, fileExt))
}

// LatestCheckpoint scans dir for checkpoint files and returns the one
// with the highest round count. ok is false when dir holds none (a fresh
// -resume run starts from scratch); an unreadable directory is an error.
func LatestCheckpoint(dir string) (path string, rounds int, ok bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return "", 0, false, nil
		}
		return "", 0, false, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var r int
		if n, _ := fmt.Sscanf(e.Name(), "checkpoint-%d"+fileExt, &r); n == 1 {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return "", 0, false, nil
	}
	sort.Strings(names)
	last := names[len(names)-1]
	fmt.Sscanf(last, "checkpoint-%d"+fileExt, &rounds)
	return filepath.Join(dir, last), rounds, true, nil
}

// SaveCheckpoint atomically writes image, a trainer's state after rounds
// completed rounds, into dir under CheckpointPath and returns that path.
func SaveCheckpoint(dir string, rounds int, image []byte) (string, error) {
	path := CheckpointPath(dir, rounds)
	if err := WriteFileAtomic(path, image); err != nil {
		return "", err
	}
	return path, nil
}

// RestoreLatest reads the newest checkpoint in dir (LatestCheckpoint),
// hands its bytes to restore and returns the trainer's rounds afterwards.
// ok is false when dir holds none (the caller trains from scratch).
func RestoreLatest(dir string, restore func(image []byte) error, rounds func() int) (int, bool, error) {
	path, _, ok, err := LatestCheckpoint(dir)
	if err != nil || !ok {
		return 0, ok, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, true, err
	}
	if err := restore(data); err != nil {
		return 0, true, fmt.Errorf("gtvsnap: restoring %s: %w", path, err)
	}
	return rounds(), true, nil
}
