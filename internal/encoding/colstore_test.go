package encoding

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gmm"
	"repro/internal/tensor"
)

// storedBlobTable is the fixed table behind the stored-blob pins and the
// truncation sweeps: one column of each kind, a category with an empty
// label, two special values.
func storedBlobTable(t testing.TB) *Table {
	t.Helper()
	r := rand.New(rand.NewSource(20))
	const rows = 160
	data := tensor.New(rows, 3)
	for i := 0; i < rows; i++ {
		row := data.RawRow(i)
		row[0] = float64(r.Intn(3))
		row[1] = r.NormFloat64()*3 + float64(40*r.Intn(2))
		switch r.Intn(4) {
		case 0:
			row[2] = 0
		case 1:
			row[2] = -1
		default:
			row[2] = r.NormFloat64()*10 + 100
		}
	}
	tbl, err := NewTable([]ColumnSpec{
		{Name: "segment", Kind: KindCategorical, Categories: []string{"retail", "", "sme"}},
		{Name: "income", Kind: KindContinuous},
		{Name: "mortgage", Kind: KindMixed, SpecialValues: []float64{0, -1}},
	}, data)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return tbl
}

func storedBlobTransformer(t testing.TB, tbl *Table) *Transformer {
	t.Helper()
	tr, err := FitTransformer(rand.New(rand.NewSource(EncodeSeed(7))), tbl, gmm.DefaultConfig())
	if err != nil {
		t.Fatalf("FitTransformer: %v", err)
	}
	return tr
}

// TestStoredBlobGolden pins the three encodings an existing DataDir depends
// on — the specs blob, the fitted-transformer blob and the encode
// fingerprint — to bytes. golden.gtvcol is a coldata-level fixture and
// carries none of them, and TestEncodePathsMatchReference compares against
// the package's own encoder. The constants are those of codec version 2,
// whose specs and transformer blobs differ from version 1's in the leading
// version byte alone; like every bit contract in the repo the fitted one
// holds within one amd64 build.
func TestStoredBlobGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are pinned for amd64 float arithmetic")
	}
	tbl := storedBlobTable(t)
	for _, c := range []struct {
		name, want string
		blob       []byte
	}{
		{"specs", "28b8546b4b5f8a349794883581ca99a17db88c2d5d2e649d7ca5f00e94316830", encodeSpecs(tbl.Specs)},
		{"transformer", "c81077355b12a78454683b9acb55ff1d50c36d2f0fb06427cc33d347e40145c7", storedBlobTransformer(t, tbl).encodeBinary()},
		{"fingerprint", "5a6bead444c3d0c36cfe058713b9fc021cf3609d3286b5814713a88e3e6413d5", encodeFingerprint(7, gmm.DefaultConfig(), tbl.Rows(), tbl.Specs)},
	} {
		sum := sha256.Sum256(c.blob)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s blob (%d bytes): sha256 %s, want %s — a stored-blob format break; bump colstoreCodecVersion", c.name, len(c.blob), got, c.want)
		}
	}
}

// allocatedBy returns the bytes fn allocated (one goroutine, so the
// TotalAlloc delta is fn's own).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStoredBlobHostileCounts feeds the decoders blobs of a few bytes that
// claim 2^24 elements. The meta CRC lives in the gtvcol footer, so a crafted
// file passes it: the count has to be bounded by the bytes behind it before
// it sizes an allocation.
func TestStoredBlobHostileCounts(t *testing.T) {
	uv := binary.AppendUvarint
	hostileColumns := uv(uv(nil, colstoreCodecVersion), 1<<24)
	// version | 1 column | spec{"x", continuous, no categories, no specials} | 2^24 components
	hostileMixture := uv(nil, colstoreCodecVersion)
	hostileMixture = uv(hostileMixture, 1)
	hostileMixture = append(uv(hostileMixture, 1), 'x')
	hostileMixture = uv(hostileMixture, uint64(KindContinuous))
	hostileMixture = uv(uv(hostileMixture, 0), 0)
	hostileMixture = uv(hostileMixture, 1<<24)

	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"specs columns", func() error { _, err := decodeSpecs(hostileColumns); return err }},
		{"transformer columns", func() error { _, err := decodeTransformer(hostileColumns); return err }},
		{"transformer mixture components", func() error { _, err := decodeTransformer(hostileMixture); return err }},
	} {
		var err error
		got := allocatedBy(func() { err = c.decode() })
		if err == nil {
			t.Errorf("%s: hostile count decoded without error", c.name)
		}
		if got >= 1<<20 {
			t.Errorf("%s: decode allocated %d MiB before failing, want < 1 MiB", c.name, got>>20)
		}
	}
}

// TestStoredBlobTruncation cuts a specs blob and a fitted-transformer blob
// at every byte and appends one: every image but the exact one is rejected,
// and the exact one round-trips.
func TestStoredBlobTruncation(t *testing.T) {
	tbl := storedBlobTable(t)
	tr := storedBlobTransformer(t, tbl)
	for _, c := range []struct {
		name   string
		blob   []byte
		decode func([]byte) error
	}{
		{"specs", encodeSpecs(tbl.Specs), func(b []byte) error {
			specs, err := decodeSpecs(b)
			if err == nil && !reflect.DeepEqual(specs, tbl.Specs) {
				t.Errorf("specs round trip %+v", specs)
			}
			return err
		}},
		{"transformer", tr.encodeBinary(), func(b []byte) error {
			got, err := decodeTransformer(b)
			if err == nil && !reflect.DeepEqual(got.encodeBinary(), tr.encodeBinary()) {
				t.Errorf("transformer round trip re-encodes differently")
			}
			return err
		}},
	} {
		for cut := 0; cut < len(c.blob); cut++ {
			if err := c.decode(c.blob[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d/%d bytes decoded without error", c.name, cut, len(c.blob))
			}
		}
		if err := c.decode(append(append([]byte(nil), c.blob...), 0)); err == nil {
			t.Fatalf("%s: trailing byte decoded without error", c.name)
		}
		if err := c.decode(c.blob); err != nil {
			t.Fatalf("%s: full blob: %v", c.name, err)
		}
	}
}

// FuzzStoredBlobDecode holds the stored-blob decoders to the decoder
// contract: arbitrary bytes may fail, but never panic and never allocate
// past a small multiple of the input.
func FuzzStoredBlobDecode(f *testing.F) {
	tbl := storedBlobTable(f)
	f.Add(encodeSpecs(tbl.Specs))
	f.Add(storedBlobTransformer(f, tbl).encodeBinary())
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, colstoreCodecVersion), 1<<24))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		got := allocatedBy(func() {
			_, _ = decodeSpecs(blob)
			_, _ = decodeTransformer(blob)
		})
		// A decoded spec or column costs under 200 B of Go structure per
		// encoded byte (an empty-named spec is 4 bytes on disk, a colEncoder
		// plus its ColumnSpec about 350 in memory, decoded twice here).
		if limit := uint64(1<<16 + 400*len(blob)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(blob), got)
		}
	})
}
