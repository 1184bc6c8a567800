package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/encoding"
	"repro/internal/gmm"
	"repro/internal/tensor"
)

// synthBits flattens a synthesized table into the exact float64 bit
// patterns so runs can be compared for byte identity, not tolerance.
func synthBits(t *testing.T, synth *encoding.Table) []uint64 {
	t.Helper()
	bits := make([]uint64, 0, synth.Rows()*synth.Cols())
	for i := 0; i < synth.Rows(); i++ {
		for _, v := range synth.Data.RawRow(i) {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

func sameBits(t *testing.T, label string, a, b []uint64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: synthesized %d values, want %d", label, len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: synthesized value %d differs between runs (bit patterns %x vs %x)", label, i, a[i], b[i])
		}
	}
}

// bitsDigest is the hex sha256 of float64 bit patterns, little-endian.
func bitsDigest(bits []uint64) string {
	h := sha256.New()
	var b [8]byte
	for _, u := range bits {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// requireDigest fails unless got is the pinned digest. Like every sha256 pin
// in the repo it holds within one amd64 build; callers skip elsewhere.
func requireDigest(t *testing.T, label, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s: sha256 %s, want %s", label, got, want)
	}
}

func sameCheckpoint(t *testing.T, label string, a, b []byte) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: checkpoint sizes differ (%d vs %d bytes)", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: checkpoint byte %d differs between runs", label, i)
		}
	}
}

// TestDataPlaneByteIdentityCentralized is the streamed-equals-resident
// property for the centralized trainer: with the same seed, training from
// the in-memory encoded matrix, from a freshly encoded gtvcol file, and
// from a cached gtvcol file (fit/transform skipped entirely) must produce
// byte-identical model checkpoints and byte-identical synthetic output.
func TestDataPlaneByteIdentityCentralized(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	d, err := datasets.Generate("loan", datasets.Config{Rows: 300, Seed: 11})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	run := func(dataDir string) ([]uint64, []byte) {
		opts := DefaultOptions()
		opts.Rounds = 4
		opts.BlockDim = 32
		opts.NoiseDim = 16
		opts.BatchSize = 32
		opts.DataDir = dataDir
		opts.BlockCacheMB = 1
		c, err := NewCentralized(d.Table, opts)
		if err != nil {
			t.Fatalf("NewCentralized(dataDir=%q): %v", dataDir, err)
		}
		defer func() {
			if err := c.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
		if err := c.Train(nil); err != nil {
			t.Fatalf("Train(dataDir=%q): %v", dataDir, err)
		}
		ckptDir := t.TempDir()
		path, err := c.SaveCheckpoint(ckptDir)
		if err != nil {
			t.Fatalf("SaveCheckpoint: %v", err)
		}
		ckpt, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading checkpoint: %v", err)
		}
		synth, err := c.Synthesize(40)
		if err != nil {
			t.Fatalf("Synthesize(dataDir=%q): %v", dataDir, err)
		}
		return synthBits(t, synth), ckpt
	}

	memBits, memCkpt := run("")
	dir := t.TempDir()
	freshBits, freshCkpt := run(dir) // encodes train.enc.gtvcol
	if _, err := os.Stat(dir + "/central.enc.gtvcol"); err != nil {
		t.Fatalf("expected encoded store on disk: %v", err)
	}
	cachedBits, cachedCkpt := run(dir) // reuses it via fingerprint

	sameBits(t, "in-memory vs streamed", memBits, freshBits)
	sameBits(t, "streamed vs cached-rerun", freshBits, cachedBits)
	sameCheckpoint(t, "in-memory vs streamed", memCkpt, freshCkpt)
	sameCheckpoint(t, "streamed vs cached-rerun", freshCkpt, cachedCkpt)

	// The in-memory run pinned to bytes, so a change to the in-memory data
	// plane cannot move all three runs together. Computed while that plane
	// still held a dense encoded matrix.
	if runtime.GOARCH == "amd64" {
		ckptSum := sha256.Sum256(memCkpt)
		requireDigest(t, "in-memory checkpoint", hex.EncodeToString(ckptSum[:]), "9154c7d185ad9edb959e378c20134d9b71d57c6a33a3703fa32f6f78fe6e177d")
		requireDigest(t, "in-memory synthesis", bitsDigest(memBits), "a4015eb1bf3584e05180668928a814d46707d7c764144f581adc6e611c40e25a")
	}
}

// TestEncodedMatrixPins pins the encoded matrix each party of a two-client
// split of every stand-in dataset trains on, read back through the
// party's data plane, to a sha256 of its float64 bits. The seeds are the
// ones NewClient derives (opts.Seed + 1000·i). The digests were computed
// while the in-memory data plane still held a dense encoded matrix; they
// hold within one amd64 build. It also pins the bytes of the two files the
// party's data directory holds, its .enc.gtvcol and the .raw.gtvcol
// WriteRawTable writes, so that a change to the writer's layout choices
// fails here even where every decoded bit is unchanged.
func TestEncodedMatrixPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are pinned for amd64 float arithmetic")
	}
	want := map[string][2]string{
		"loan": {
			"47affeda5354042d06dfd34d29ac331c24447786dffc443af9a2496741b2feb9",
			"df29c74e68f6ecbe2a98d67316da73725a041fb304436f87cd748e3977825ac7",
		},
		"adult": {
			"9d61417ba2fc22677a699f1c424d3f273eaea0212a8b90fc068ccc9ce7904a63",
			"5cade6d70af27e87219b018568c9aa6fe25bb4d0fcb314306beb8535cd647cd3",
		},
		"covtype": {
			"7967f8e6ca8ae269b8b4e14614586402dcd101061f1cf2ae1358841032c74de4",
			"ab6e9b176b6bcf6e2a235c7656e05ae8149559c508209648c58df37874ee3e96",
		},
		"intrusion": {
			"cedfb27cf42dcd7b3ec4611813bcd443cef2314c8dafffdf1b4fd9e044963a94",
			"04fbf38da7f7b08d976b8e3060fc98865ad1f6bd9e9d5d3f36f5a74bc4ea54c9",
		},
		"credit": {
			"b192c3b0ceb0d554b8f17671e163c9304b698c307a5008b248888c390a339ea0",
			"6f33eb56f79cda6776201f46fe77b76b01b0567dc76864675d1bed845d78013c",
		},
	}
	// The sha256 of each party's .enc.gtvcol and .raw.gtvcol.
	wantFiles := map[string][2][2]string{
		"loan": {
			{"ea6f770f60fc4cecd4af2bb4c995407c2f22ef6e8fb5c1e1e24c0bbe4b2356e3",
				"cdb4e42d9d3b6d13a11db3300ec547884734fc620f3885f1bdcd6a9d138f6f83"},
			{"c799c7f0af19dc1ed300919f6851aa294dfe280657fe7f5c86ba691c28c3088a",
				"5a151bef05870cde5c2d4895b0fc6e7a1c0d70005af4ed30f3b58dee1b4005f9"},
		},
		"adult": {
			{"3b3ca4d9e4fe4935b65d596b51ed4a9ba708223ebf87ae8f76be11d81d80d01e",
				"376f3c29723dd941647da893f079392d2ad2b32a7d9d078abfdc62fa5f04def7"},
			{"ca1090d08ba64f272cf46e8264cb9fa6eda65adc790e3cee816cf7a108bb4dbf",
				"613f9a260926b5df0409ef2b2ed4476254aaa8131bbbf170a3e84a632d22fd52"},
		},
		"covtype": {
			{"38426797f6011ccff0e52850cbef278191a8effb0a2d1628d1a971962196ce60",
				"317fea10b91634c7fab0e93f134b0966979810e6b06dfe8e87769a4e8e72d9b6"},
			{"ed908ac3f555ad18077f3c0e9f3fedf4073e4961d956a1a15c83b04ff281f1f6",
				"fe79ae6e621ef4b511fed01e7a1793cc58ac7a2a9e6bc3facd158c9c330ebdb3"},
		},
		"intrusion": {
			{"2d9c2cee89a10abd56af7083826b9a8cc9d0bb8031259d475a2ffd2446e9e94b",
				"de907d68bbc0f15be57294c22472e37b168839f72b897b158c023e9eb6f56d35"},
			{"9a9edaebfc22fcd8efb169aa2354b3442bd325c8d95386bc1cf9daa530ee8f59",
				"ba1e5703591baf7d7546a37d4a65c17578e93fbaf0c67832be8968ff96866978"},
		},
		"credit": {
			{"1809eba9a522eec3f4b58e9a068d0dd986b2258a5056b08337d2ebc6c0502acf",
				"312cae7e4f33a12faa6141aad413f0028aeef8dc7fcef53c71566e533f8e7b45"},
			{"6d4a35b9d1774776a6845f26b74b48f14917cab6015f49ec95ba7b200203f203",
				"6ea1a49855c9c64a2ff1f1575f9202bf36694b4ac32814266998c330cf64de85"},
		},
	}
	opts := DefaultOptions()
	for _, name := range datasets.Names() {
		d, err := datasets.Generate(name, datasets.Config{Rows: 300, Seed: 31})
		if err != nil {
			t.Fatalf("Generate(%s): %v", name, err)
		}
		assignment, err := EvenAssignment(d.Table.Cols(), 2)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := d.Table.VerticalSplit(assignment, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, part := range parts {
			_, backing, err := encoding.OpenOrEncode(encoding.Storage{}, part, opts.Seed+int64(i)*1000, gmm.DefaultConfig())
			if err != nil {
				t.Fatalf("%s client %d: %v", name, i, err)
			}
			idx := make([]int, part.Rows())
			for k := range idx {
				idx[k] = k
			}
			m, err := backing.GatherRows(idx)
			if err != nil {
				t.Fatalf("%s client %d: %v", name, i, err)
			}
			bits := make([]uint64, 0, len(m.Data()))
			for _, v := range m.Data() {
				bits = append(bits, math.Float64bits(v))
			}
			m.Release()
			if err := backing.Close(); err != nil {
				t.Fatal(err)
			}
			requireDigest(t, fmt.Sprintf("%s client %d", name, i), bitsDigest(bits), want[name][i])

			st := encoding.Storage{Dir: t.TempDir(), Name: fmt.Sprintf("client-%d", i)}
			if _, backing, err = encoding.OpenOrEncode(st, part, opts.Seed+int64(i)*1000, gmm.DefaultConfig()); err != nil {
				t.Fatalf("%s client %d: %v", name, i, err)
			}
			if err := backing.Close(); err != nil {
				t.Fatal(err)
			}
			if err := encoding.WriteRawTable(st, part, "pins"); err != nil {
				t.Fatalf("%s client %d: %v", name, i, err)
			}
			for k, path := range []string{st.EncPath(), st.RawPath()} {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				requireDigest(t, filepath.Base(path)+" of "+name, hex.EncodeToString(sum[:]), wantFiles[name][i][k])
			}
		}
	}
}

// TestDenseAndTransformPins pins, for each party of the same two-client
// splits as TestEncodedMatrixPins, the two other ways out of the encoder:
// the backing expanded whole (Backing.Dense(nil)) and the matrix
// Transformer.Transform encodes from its own stream (a generator seeded
// with the party's seed, not its EncodeSeed), each as a sha256 of its
// float64 bits. A Dense digest equals the party's TestEncodedMatrixPins
// digest: a whole expansion and a gather of every row in order are one
// matrix. They hold within one amd64 build.
func TestDenseAndTransformPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are pinned for amd64 float arithmetic")
	}
	want := map[string][2][2]string{
		"loan": {
			{"47affeda5354042d06dfd34d29ac331c24447786dffc443af9a2496741b2feb9",
				"aa58afa40139a3916657341463085c9ee54cdc7b97dbeca7c1b64dc591d162b5"},
			{"df29c74e68f6ecbe2a98d67316da73725a041fb304436f87cd748e3977825ac7",
				"2ebd981ad539c43daebde7a1d54a9b8799584e3c23355641056c921e3be55e51"},
		},
		"adult": {
			{"9d61417ba2fc22677a699f1c424d3f273eaea0212a8b90fc068ccc9ce7904a63",
				"bae419dbe9cc4b6611ced1059d6804b2460922f9d44c8b82ec4ccdfc1f887e39"},
			{"5cade6d70af27e87219b018568c9aa6fe25bb4d0fcb314306beb8535cd647cd3",
				"cef13b44cad8d1e645cf0b050d126005e50edf145cded91099b6ef724cdf7b13"},
		},
		"covtype": {
			{"7967f8e6ca8ae269b8b4e14614586402dcd101061f1cf2ae1358841032c74de4",
				"bdaafa54183ae27e25818c9547ebc2b5b35b02c2db86886f9afa6eb9895ae1f0"},
			{"ab6e9b176b6bcf6e2a235c7656e05ae8149559c508209648c58df37874ee3e96",
				"fb692593ce1dbe6d2569cd028cf6a4dad328f12dc28621d5d84fc2dfc77479e4"},
		},
		"intrusion": {
			{"cedfb27cf42dcd7b3ec4611813bcd443cef2314c8dafffdf1b4fd9e044963a94",
				"38bca11e4a77b824d7cbbd3377f58fd684d13cfba95ac079c70901d883d5e0e3"},
			{"04fbf38da7f7b08d976b8e3060fc98865ad1f6bd9e9d5d3f36f5a74bc4ea54c9",
				"b493eff2623a38f154475e97e2ff12edf80f98e72099a0b1c1915ce39eab453b"},
		},
		"credit": {
			{"b192c3b0ceb0d554b8f17671e163c9304b698c307a5008b248888c390a339ea0",
				"e2cc0a6b99b5c5c9ed3592375d715a447aca82d3ab0433977be964ccb559e677"},
			{"6f33eb56f79cda6776201f46fe77b76b01b0567dc76864675d1bed845d78013c",
				"b0ceb067a4552a672c277749c90ebd8bd031b03807d15035c68f213d1a083e1c"},
		},
	}
	matrixDigest := func(m *tensor.Dense) string {
		bits := make([]uint64, 0, len(m.Data()))
		for _, v := range m.Data() {
			bits = append(bits, math.Float64bits(v))
		}
		return bitsDigest(bits)
	}
	opts := DefaultOptions()
	for _, name := range datasets.Names() {
		d, err := datasets.Generate(name, datasets.Config{Rows: 300, Seed: 31})
		if err != nil {
			t.Fatalf("Generate(%s): %v", name, err)
		}
		assignment, err := EvenAssignment(d.Table.Cols(), 2)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := d.Table.VerticalSplit(assignment, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, part := range parts {
			seed := opts.Seed + int64(i)*1000
			tr, backing, err := encoding.OpenOrEncode(encoding.Storage{}, part, seed, gmm.DefaultConfig())
			if err != nil {
				t.Fatalf("%s client %d: %v", name, i, err)
			}
			dense, err := backing.Dense(nil)
			if err != nil {
				t.Fatalf("%s client %d: Dense: %v", name, i, err)
			}
			requireDigest(t, fmt.Sprintf("%s client %d Dense", name, i), matrixDigest(dense), want[name][i][0])
			dense.Release()
			if err := backing.Close(); err != nil {
				t.Fatal(err)
			}
			enc, err := tr.Transform(rand.New(rand.NewSource(seed)), part)
			if err != nil {
				t.Fatalf("%s client %d: Transform: %v", name, i, err)
			}
			requireDigest(t, fmt.Sprintf("%s client %d Transform", name, i), matrixDigest(enc), want[name][i][1])
		}
	}
}

// TestDataPlaneByteIdentityFederated is the same property for GTV proper:
// every client draws batches through its gtvcol store and the federated
// trajectory must not move by a single bit.
func TestDataPlaneByteIdentityFederated(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	d, err := datasets.Generate("loan", datasets.Config{Rows: 240, Seed: 12})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	assignment, err := EvenAssignment(d.Table.Cols(), 2)
	if err != nil {
		t.Fatalf("EvenAssignment: %v", err)
	}
	run := func(dataDir string) ([]uint64, []byte) {
		opts := DefaultOptions()
		opts.Rounds = 3
		opts.BlockDim = 32
		opts.NoiseDim = 16
		opts.BatchSize = 32
		opts.DataDir = dataDir
		opts.BlockCacheMB = 1
		g, err := NewFromAssignment(d.Table, assignment, 2, opts)
		if err != nil {
			t.Fatalf("NewFromAssignment(dataDir=%q): %v", dataDir, err)
		}
		if err := g.Train(nil); err != nil {
			t.Fatalf("Train(dataDir=%q): %v", dataDir, err)
		}
		ckptDir := t.TempDir()
		path, err := g.Checkpoint(ckptDir)
		if err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		ckpt, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading checkpoint: %v", err)
		}
		synth, err := g.Synthesize(30)
		if err != nil {
			t.Fatalf("Synthesize(dataDir=%q): %v", dataDir, err)
		}
		bits := synthBits(t, synth)
		if err := g.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return bits, ckpt
	}

	memBits, memCkpt := run("")
	dir := t.TempDir()
	freshBits, freshCkpt := run(dir)
	if _, err := os.Stat(dir + "/client-0.enc.gtvcol"); err != nil {
		t.Fatalf("expected client-0 encoded store on disk: %v", err)
	}
	cachedBits, cachedCkpt := run(dir)

	sameBits(t, "in-memory vs streamed", memBits, freshBits)
	sameBits(t, "streamed vs cached-rerun", freshBits, cachedBits)
	sameCheckpoint(t, "in-memory vs streamed", memCkpt, freshCkpt)
	sameCheckpoint(t, "streamed vs cached-rerun", freshCkpt, cachedCkpt)
}
