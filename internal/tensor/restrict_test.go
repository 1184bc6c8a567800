package tensor_test

import (
	"math"
	"math/rand"
	"testing"

	ag "repro/internal/autograd"
	"repro/internal/tensor"
)

// The row-restricted backward pass (tensor.ActiveRowGroups picks the rows,
// autograd.RestrictRows builds the graph over them) against the backward pass
// over every row, bit for bit, on both kernel paths. It lives here, not in
// internal/autograd, because the path switch is this package's test-only
// export; RestrictRows' own API tests are in internal/autograd.

// restrictCase is one critic-shaped graph and the gradient that arrives at
// its output: 1–3 blocks of Affine → LeakyReLU → Dropout over x.
type restrictCase struct {
	x      *tensor.Dense
	ws, bs []*tensor.Dense
	slope  float64
	seed   int64 // of the dropout masks: the same in every forward pass
	grad   *tensor.Dense
	// lateBlock and lateElem name the weight element that turns NaN between
	// the forward pass and the backward pass; no block is -1.
	lateBlock, lateElem int
}

// Injections newRestrictCase can be asked for.
const (
	injNegZeroRow  = 1 << iota // a gradient row of -0 outside the scattered rows
	injNaNGradRow              // a gradient row of NaN
	injInfGradRow              // a gradient row holding +Inf and -Inf
	injNaNInput                // a NaN in x
	injInfInput                // an Inf in x
	injInfWeight               // an Inf in a weight matrix before the forward pass
	injLateWeight              // a NaN in a weight matrix after the forward pass
	injNegGradient             // scattered gradients are all negative
)

// newRestrictCase draws a case from seed: rows x in input with exact zeros of
// both signs among its values, blocks layers of the given width, and a
// gradient that is +0 but for active scattered rows — drawn with
// replacement and accumulated, as the server's scatter does — and for what
// inject asks for.
func newRestrictCase(seed int64, rows, in, width, blocks, active int, inject uint) *restrictCase {
	rng := rand.New(rand.NewSource(seed))
	c := &restrictCase{x: tensor.New(rows, in), slope: 0.2, seed: seed + 1, grad: tensor.New(rows, width), lateBlock: -1}
	for i, xd := 0, c.x.Data(); i < len(xd); i++ {
		switch rng.Intn(4) {
		case 0:
			xd[i] = 0
		case 1:
			xd[i] = math.Copysign(0, -1)
		default:
			xd[i] = rng.NormFloat64()
		}
	}
	for b, w := 0, in; b < blocks; b, w = b+1, width {
		c.ws = append(c.ws, tensor.Randn(rng, w, width, 0, 0.5))
		c.bs = append(c.bs, tensor.Randn(rng, 1, width, 0, 0.5))
	}
	pick := func(m *tensor.Dense) *float64 {
		if m.Size() == 0 {
			return new(float64)
		}
		return &m.Data()[rng.Intn(m.Size())]
	}
	for k := 0; k < active && rows > 0; k++ {
		row := c.grad.RawRow(rng.Intn(rows))
		for j := range row {
			v := rng.NormFloat64()
			if inject&injNegGradient != 0 {
				v = -math.Abs(v)
			}
			row[j] += v
		}
	}
	fillRow := func(vals ...float64) {
		if rows == 0 {
			return
		}
		row := c.grad.RawRow(rng.Intn(rows))
		for j := range row {
			row[j] = vals[j%len(vals)]
		}
	}
	if inject&injNegZeroRow != 0 {
		fillRow(math.Copysign(0, -1))
	}
	if inject&injNaNGradRow != 0 {
		fillRow(math.NaN())
	}
	if inject&injInfGradRow != 0 {
		fillRow(math.Inf(1), math.Inf(-1), 1)
	}
	if inject&injNaNInput != 0 {
		*pick(c.x) = math.NaN()
	}
	if inject&injInfInput != 0 {
		*pick(c.x) = math.Inf(-1)
	}
	if inject&injInfWeight != 0 {
		*pick(c.ws[rng.Intn(blocks)]) = math.Inf(1)
	}
	if inject&injLateWeight != 0 {
		c.lateBlock = rng.Intn(blocks)
		c.lateElem = rng.Intn(c.ws[c.lateBlock].Size())
	}
	return c
}

// paramGradBits runs one forward and one backward pass, restricted to the
// gradient's active row groups or not, and returns the bits of every
// parameter gradient and whether the pass ran on a restricted graph.
func (c *restrictCase) paramGradBits(t *testing.T, restrict bool) (bits [][]uint64, restricted bool) {
	t.Helper()
	var params []*ag.Value
	rng := rand.New(rand.NewSource(c.seed))
	y := ag.Const(c.x)
	for b := range c.ws {
		w, bias := ag.Var(c.ws[b].Clone()), ag.Var(c.bs[b].Clone())
		params = append(params, w, bias)
		y = ag.Dropout(ag.LeakyReLU(ag.Affine(y, w, bias), c.slope), rng, 0.5)
	}
	if c.lateBlock >= 0 {
		params[2*c.lateBlock].Data().Data()[c.lateElem] = math.NaN()
	}
	out, grad := y, c.grad
	if restrict {
		rows := grad.ActiveRowGroups(nil)
		r, err := ag.RestrictRows(y, rows)
		if err != nil {
			t.Fatalf("RestrictRows refused a row-wise graph: %v", err)
		}
		if r != y {
			out, grad, restricted = r, grad.GatherRows(rows), true
			if or, _ := out.Shape(); or != len(rows) {
				t.Fatalf("restricted graph has %d rows for a set of %d", or, len(rows))
			}
		}
	}
	proxy := ag.SumAll(ag.Mul(out, ag.Const(grad)))
	grads := ag.Grad(proxy, params...)
	for _, g := range grads {
		b := make([]uint64, 0, len(g.Data().Data()))
		for _, v := range g.Data().Data() {
			b = append(b, math.Float64bits(v))
		}
		bits = append(bits, b)
	}
	var tape ag.Tape
	tape.Track(proxy, y)
	tape.Track(grads...)
	tape.Release()
	if restricted {
		grad.Release()
	}
	return bits, restricted
}

// checkRestrictedMatchesFull is the contract: the restricted backward pass
// gives every parameter the full pass's gradient, bit for bit.
func checkRestrictedMatchesFull(t *testing.T, c *restrictCase) (restricted bool) {
	t.Helper()
	want, _ := c.paramGradBits(t, false)
	got, restricted := c.paramGradBits(t, true)
	for p := range want {
		for i := range want[p] {
			if got[p][i] != want[p][i] {
				t.Fatalf("parameter %d element %d: restricted backward %#x (%v), full backward %#x (%v)",
					p, i, got[p][i], math.Float64frombits(got[p][i]), want[p][i], math.Float64frombits(want[p][i]))
			}
		}
	}
	return restricted
}

func TestRestrictedBackwardMatchesFull(t *testing.T) {
	cases := []struct {
		name                             string
		rows, in, width, blocks, active  int
		inject                           uint
		wantRestricted, wantUnrestricted bool
	}{
		{name: "three-blocks", rows: 64, in: 9, width: 17, blocks: 3, active: 5, wantRestricted: true},
		{name: "rows-not-multiple-of-four", rows: 67, in: 9, width: 17, blocks: 2, active: 6, wantRestricted: true},
		{name: "fewer-than-four-rows", rows: 3, in: 5, width: 6, blocks: 1, active: 1, wantUnrestricted: true},
		{name: "duplicate-scattered-rows", rows: 24, in: 7, width: 12, blocks: 2, active: 40},
		{name: "empty-active-set", rows: 40, in: 7, width: 13, blocks: 2, active: 0, wantRestricted: true},
		{name: "empty-active-set-with-tail", rows: 42, in: 7, width: 13, blocks: 2, active: 0, wantRestricted: true},
		{name: "every-row-active", rows: 16, in: 7, width: 13, blocks: 2, active: 400, wantUnrestricted: true},
		{name: "negative-zero-row", rows: 48, in: 7, width: 13, blocks: 2, active: 2, inject: injNegZeroRow, wantRestricted: true},
		{name: "negative-gradients", rows: 48, in: 7, width: 13, blocks: 2, active: 3, inject: injNegGradient, wantRestricted: true},
		{name: "nan-gradient-row", rows: 48, in: 7, width: 13, blocks: 2, active: 3, inject: injNaNGradRow, wantRestricted: true},
		{name: "inf-gradient-row", rows: 48, in: 7, width: 13, blocks: 3, active: 3, inject: injInfGradRow, wantRestricted: true},
		{name: "nan-activation-falls-back", rows: 48, in: 7, width: 13, blocks: 2, active: 3, inject: injNaNInput, wantUnrestricted: true},
		{name: "inf-activation-falls-back", rows: 48, in: 7, width: 13, blocks: 3, active: 3, inject: injInfInput, wantUnrestricted: true},
		{name: "inf-weight-falls-back", rows: 48, in: 7, width: 13, blocks: 2, active: 3, inject: injInfWeight, wantUnrestricted: true},
		{name: "weight-spoiled-after-forward-falls-back", rows: 48, in: 7, width: 13, blocks: 2, active: 3, inject: injLateWeight, wantUnrestricted: true},
		{name: "narrow-scalar-width", rows: 50, in: 3, width: 2, blocks: 2, active: 4, wantRestricted: true},
		{name: "wide-rows", rows: 50, in: 40, width: 45, blocks: 2, active: 4, wantRestricted: true},
		// A long weight gradient (1100 rows) with dst rows of two chunks.
		{name: "transposed-weight-gradient", rows: 1100, in: 40, width: 40, blocks: 2, active: 30, wantRestricted: true},
	}
	tensor.EachKernelPath(t, func(t *testing.T) {
		for i, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				c := newRestrictCase(int64(100+i), tc.rows, tc.in, tc.width, tc.blocks, tc.active, tc.inject)
				restricted := checkRestrictedMatchesFull(t, c)
				if tc.wantRestricted && !restricted {
					t.Fatal("the backward pass ran over every row: the case does not test the restriction")
				}
				if tc.wantUnrestricted && restricted {
					t.Fatal("the graph was restricted where RestrictRows must return its input")
				}
			})
		}
	})
}

// TestRestrictedBackwardMatchesFullRandom sweeps shapes, active-row counts
// and injections from a seed, as the fuzzer does from its input.
func TestRestrictedBackwardMatchesFullRandom(t *testing.T) {
	tensor.EachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 300; i++ {
			checkRestrictedMatchesFull(t, restrictCaseFromFuzz(rng.Int63(), uint16(rng.Intn(1<<16)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))))
		}
	})
}

// restrictCaseFromFuzz maps fuzzer input to a case: up to 90 rows, widths
// from the scalar loops (below 4 columns) to past one chunk of the row path
// (above 32), 1–3 blocks, and any combination of injections.
func restrictCaseFromFuzz(seed int64, shape uint16, blocks, active, inject uint8) *restrictCase {
	rows := int(shape % 91)
	in := 1 + int(shape>>7)%41
	width := 1 + int(shape>>11)%3*16 + int(shape>>13)%4
	return newRestrictCase(seed, rows, in, width, 1+int(blocks)%3, int(active)%(rows/2+2), uint(inject))
}

func FuzzRestrictedBackward(f *testing.F) {
	f.Add(int64(1), uint16(64), uint8(2), uint8(5), uint8(0))
	f.Add(int64(2), uint16(67|9<<7), uint8(1), uint8(0), uint8(injNegZeroRow))
	f.Add(int64(3), uint16(90|40<<7|1<<11), uint8(0), uint8(3), uint8(injNaNGradRow|injInfGradRow))
	f.Add(int64(4), uint16(33|2<<11|3<<13), uint8(2), uint8(9), uint8(injInfInput))
	f.Add(int64(5), uint16(48), uint8(1), uint8(2), uint8(injLateWeight|injNegGradient))
	f.Fuzz(func(t *testing.T, seed int64, shape uint16, blocks, active, inject uint8) {
		for _, path := range tensor.KernelPaths() {
			tensor.UseKernelPath(t, path)
			checkRestrictedMatchesFull(t, restrictCaseFromFuzz(seed, shape, blocks, active, inject))
		}
	})
}
