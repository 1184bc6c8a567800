package snap

// Section-payload codec: internal/binfmt's Writer and Reader plus what is
// gtvsnap's own — u32 length prefixes, fixed-width ints, float64-only
// matrices (a checkpoint exists to resume byte-identically, so the lossy
// float32 wire encoding has no place here), the RNG-state record and the
// config fingerprint.

import (
	"bytes"
	"errors"
	"math"

	"repro/internal/binfmt"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// errSnap is the domain every section decode error wraps: the "gtvsnap: "
// message prefix.
var errSnap = errors.New("gtvsnap")

// Enc appends one section payload to the Builder's buffer.
type Enc struct{ binfmt.Writer }

func (e *Enc) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.Raw(b)
}

func (e *Enc) U64s(v []uint64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U64(x)
	}
}

// Matrix appends m's shape and float64 elements straight from the backing
// storage; a nil matrix round-trips as nil (Adam moments that have not
// been created yet).
func (e *Enc) Matrix(m *tensor.Dense) {
	if m == nil {
		e.U8(0)
		return
	}
	e.U8(1)
	e.U32(uint32(m.Rows()))
	e.U32(uint32(m.Cols()))
	e.F64s(m.Data())
}

// RNG appends r's stream position.
func (e *Enc) RNG(r *rng.Rand) {
	s := r.State()
	e.U64s(s[:])
}

// Dec walks one section payload: a binfmt.Reader whose errors read
// "gtvsnap: …".
type Dec struct{ binfmt.Reader }

// NewDec starts decoding one section payload.
func NewDec(payload []byte) *Dec { return &Dec{binfmt.NewReader(payload, errSnap)} }

// Bytes returns a copy of a length-prefixed byte string (a copy, because
// section payloads alias the decoded file image, which checkpoint loaders
// discard after restoring).
func (d *Dec) Bytes() []byte { return bytes.Clone(d.Take(int(d.U32()))) }

// Matrix decodes a matrix into a buffer drawn from the tensor free list
// (every element is overwritten). Ownership passes to the caller; restore
// paths copy into live parameter tensors and Release the decoded buffer.
func (d *Dec) Matrix() *tensor.Dense {
	if d.U8() == 0 {
		return nil
	}
	rows, cols := uint64(d.U32()), uint64(d.U32())
	r, c := d.Shape(rows, cols, 8)
	if d.Err() != nil {
		return nil
	}
	out := tensor.NewPooledUninit(r, c)
	d.F64s(out.Data())
	return out
}

// RNG reads a stream position written by Enc.RNG into r.
func (d *Dec) RNG(r *rng.Rand) {
	var s rng.State
	if n := d.U32(); n != uint32(len(s)) {
		d.Failf("rng section holds %d state words, want %d", n, len(s))
	}
	for i := range s {
		s[i] = d.U64()
	}
	if d.Err() == nil {
		r.SetState(s)
	}
}

// Field is one entry of a config fingerprint: a trajectory-relevant
// hyper-parameter under the name a mismatch is reported by. Value holds an
// int64, a float64 or a bool.
type Field struct {
	Name  string
	Value any
}

// Fingerprint appends the fields' values in order.
func (e *Enc) Fingerprint(fields []Field) {
	for _, f := range fields {
		switch v := f.Value.(type) {
		case int64:
			e.I64(v)
		case float64:
			e.F64(v)
		case bool:
			e.Bool(v)
		default:
			panic("snap: fingerprint field " + f.Name + " is not an int64, float64 or bool")
		}
	}
}

// Fingerprint reads a fingerprint written from the same field table and
// fails the decoder at the first value that differs from the live one: the
// table that writes a field is the table that checks it. Floats compare by
// bits — any drift in a trajectory-relevant hyper-parameter invalidates the
// checkpoint.
func (d *Dec) Fingerprint(fields []Field) {
	for _, f := range fields {
		var got any
		same := false
		switch have := f.Value.(type) {
		case int64:
			v := d.I64()
			got, same = v, v == have
		case float64:
			v := d.F64()
			got, same = v, math.Float64bits(v) == math.Float64bits(have)
		case bool:
			v := d.Bool()
			got, same = v, v == have
		default:
			panic("snap: fingerprint field " + f.Name + " is not an int64, float64 or bool")
		}
		if !same {
			d.Failf("checkpoint %s %v does not match configured %v", f.Name, got, f.Value)
		}
	}
}
