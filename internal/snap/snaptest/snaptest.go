// Package snaptest drives a trainer's Restore with damaged copies of a real
// snapshot image. A checkpoint blob crosses the federation's trust boundary
// (a client's blob is stored by the server and shipped back), so Restore has
// to turn every one of them into an error: no panic, no allocation a few
// bytes of input can inflate. Each trainer's test supplies the image, the
// layout of its sections and a Restore into a fresh trainer; the damage is
// written once, here.
package snaptest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/snap"
)

// The gtvsnap framing, as internal/snap documents it.
const (
	headerLen  = 8         // magic, version, kind
	payloadOff = 1 + 8     // section id, payload length
	overhead   = 1 + 8 + 4 // and the CRC behind the payload
)

// Walker reads one section payload the way its decoder does and records
// where every u32 — a count, a dimension, a length — and every Adam step
// count sits.
type Walker struct {
	d     *snap.Dec
	size  int
	u32s  []int
	steps []int
}

// U32 reads a u32 and records its offset.
func (w *Walker) U32() uint32 {
	w.u32s = append(w.u32s, w.size-w.d.Remaining())
	return w.d.U32()
}

// hostileSteps are the step counts an optimizer must refuse: one whose next
// step divides by 1-β⁰ = 0, and one with no next step.
var hostileSteps = []int64{-1, math.MaxInt64}

// Skip passes over n bytes of fixed-width fields; Rest over all that remain.
func (w *Walker) Skip(n int) { w.d.Take(n) }
func (w *Walker) Rest()      { w.d.Take(w.d.Remaining()) }

// Matrix walks what Enc.Matrix writes.
func (w *Walker) Matrix() {
	if w.d.U8() != 0 {
		rows, cols := w.U32(), w.U32()
		w.Skip(8 * int(rows) * int(cols))
	}
}

// Params walks what nn.EncodeParams writes.
func (w *Walker) Params() {
	for n := w.U32(); n > 0; n-- {
		w.Matrix()
	}
	for n := w.U32(); n > 0; n-- {
		w.Matrix()
		w.Matrix()
	}
}

// Adam walks what nn.EncodeAdamState writes.
func (w *Walker) Adam() {
	w.steps = append(w.steps, w.size-w.d.Remaining())
	w.Skip(8)
	for n := w.U32(); n > 0; n-- {
		w.Matrix()
		w.Matrix()
	}
}

// RNG walks what Enc.RNG writes.
func (w *Walker) RNG() { w.Skip(8 * int(w.U32())) }

// section is one framed section of an image: its id and where it starts.
type section struct {
	id       byte
	off, len int // of the whole frame and of the payload
}

func sections(t *testing.T, image []byte) []section {
	t.Helper()
	s, err := snap.Decode(image)
	if err != nil {
		t.Fatalf("the undamaged image does not decode: %v", err)
	}
	var out []section
	off := headerLen
	for _, sec := range s.Sections {
		out = append(out, section{id: sec.ID, off: off, len: len(sec.Payload)})
		off += overhead + len(sec.Payload)
	}
	return out
}

// damaged returns a copy of image with edit applied to sec's payload and
// the section CRC recomputed, so the damage reaches the section's decoder.
func damaged(image []byte, sec section, edit func(payload []byte)) []byte {
	out := append([]byte(nil), image...)
	payload := out[sec.off+payloadOff:][:sec.len]
	edit(payload)
	binary.LittleEndian.PutUint32(out[sec.off+payloadOff+sec.len:], crc32.ChecksumIEEE(payload))
	return out
}

// mustReject restores one damaged image into a fresh trainer and requires an
// error that mentions naming, for fewer allocated bytes than a small
// multiple of the image.
func mustReject(t *testing.T, fresh func() func([]byte) error, image []byte, what, naming string) {
	t.Helper()
	restore := fresh()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := restore(image)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("%s: Restore accepted the image", what)
	}
	if !strings.Contains(err.Error(), naming) {
		t.Fatalf("%s: Restore's error does not say %q: %v", what, naming, err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(image)+1<<16); got > limit {
		t.Fatalf("%s: Restore allocated %d bytes for a %d-byte image before failing with: %v", what, got, len(image), err)
	}
}

// Hostile cuts image at every section boundary and at 200 evenly spaced
// interior offsets, sets every u32 its sections hold to 0xffffffff and every
// Adam step count to -1 and to the largest int64, each with the section CRC
// made good, and requires Restore to reject each result (a step count by
// name).
// layout walks the payload of each section id the image may hold; fresh
// builds a same-seed trainer and returns its Restore.
func Hostile(t *testing.T, image []byte, layout map[byte]func(*Walker), fresh func() func([]byte) error) {
	t.Helper()
	if err := fresh()(image); err != nil {
		t.Fatalf("Restore rejected the undamaged image: %v", err)
	}
	secs := sections(t, image)
	cuts := []int{0, headerLen}
	for _, sec := range secs[:len(secs)-1] {
		cuts = append(cuts, sec.off+overhead+sec.len)
	}
	for i := 1; i <= 200; i++ {
		cuts = append(cuts, i*len(image)/201)
	}
	for _, cut := range cuts {
		mustReject(t, fresh, image[:cut], fmt.Sprintf("cut at %d of %d", cut, len(image)), "")
	}
	fields := 0
	for _, sec := range secs {
		walk, ok := layout[sec.id]
		if !ok {
			t.Fatalf("section id %d has no layout: describe it to the hostile-image test", sec.id)
		}
		payload := image[sec.off+payloadOff:][:sec.len]
		w := &Walker{d: snap.NewDec(payload), size: sec.len}
		walk(w)
		if err := w.d.Finish(); err != nil {
			t.Fatalf("layout of section id %d does not match its payload: %v", sec.id, err)
		}
		for _, at := range w.u32s {
			img := damaged(image, sec, func(p []byte) { binary.LittleEndian.PutUint32(p[at:], 0xffffffff) })
			mustReject(t, fresh, img, fmt.Sprintf("section id %d with the u32 at %d set to 0xffffffff", sec.id, at), "")
		}
		for _, at := range w.steps {
			for _, step := range hostileSteps {
				img := damaged(image, sec, func(p []byte) { binary.LittleEndian.PutUint64(p[at:], uint64(step)) })
				mustReject(t, fresh, img, fmt.Sprintf("section id %d with the Adam step count at %d set to %d", sec.id, at, step), "step count")
			}
		}
		fields += len(w.u32s) + len(w.steps)
	}
	t.Logf("%d-byte image: %d cuts and %d u32 and step-count fields in %d sections rejected", len(image), len(cuts), fields, len(secs))
}

// Fingerprint damages, one at a time, each value of the config fingerprint
// that starts at byte off of the first section with id meta, and requires
// Restore to refuse the image with an error naming that field: a field the
// table writes is a field the table checks.
func Fingerprint(t *testing.T, image []byte, meta byte, off int, fields []snap.Field, fresh func() func([]byte) error) {
	t.Helper()
	var sec section
	for _, s := range sections(t, image) {
		if s.id == meta {
			sec = s
			break
		}
	}
	for _, f := range fields {
		at := off
		img := damaged(image, sec, func(p []byte) { p[at] ^= 1 })
		mustReject(t, fresh, img, "fingerprint field "+f.Name, "checkpoint "+f.Name+" ")
		if _, isBool := f.Value.(bool); isBool {
			off++
		} else {
			off += 8
		}
	}
	if off != sec.len {
		t.Fatalf("fingerprint ends at byte %d of a %d-byte meta section", off, sec.len)
	}
}
