package vfl

import (
	"math"
	"strings"
	"testing"

	"repro/internal/encoding"
	"repro/internal/tensor"
)

// TestClientGuardsRejectServerInput calls LocalClient directly with what a
// hostile or broken server could send it, one case per guard, and wants the
// guard's own error back. The calls are direct because both the wire's
// dispatch and the server's fan-out turn a panic into an error, which would
// hide a deleted guard behind whatever the unguarded code did.
func TestClientGuardsRejectServerInput(t *testing.T) {
	setup := Setup{
		Plan:          Plan{DiscServer: 2, GenClient: 2},
		SliceWidth:    8,
		GenBlockWidth: 8,
		DiscWidth:     8,
		LR:            1e-3,
		Seed:          1,
	}
	const rows = 50
	// client returns a client over a fresh table, configured returns it
	// configured.
	client := func(t *testing.T) *LocalClient {
		ta, _ := twoClientTables(t, rows, 3)
		c := newLocal(t, ta, NewShuffleCoordinator(1), 1)
		t.Cleanup(func() { c.Close() })
		return c
	}
	configured := func(t *testing.T) *LocalClient {
		c := client(t)
		if err := c.Configure(setup); err != nil {
			t.Fatalf("Configure: %v", err)
		}
		return c
	}
	// critic runs both forward passes of a critic step, so that only the
	// gradients BackwardDisc is given stand between it and an update.
	critic := func(t *testing.T) (c *LocalClient, gradSynth, gradReal *tensor.Dense) {
		c = configured(t)
		synth, err := c.ForwardSynthetic(tensor.New(4, setup.SliceWidth), PhaseDiscriminator)
		if err != nil {
			t.Fatal(err)
		}
		real, err := c.ForwardReal([]int{0, 1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		return c, tensor.New(synth.Rows(), synth.Cols()), tensor.New(real.Rows(), real.Cols())
	}
	configure := func(edit func(*Setup)) func(*testing.T) error {
		return func(t *testing.T) error {
			s := setup
			edit(&s)
			return client(t).Configure(s)
		}
	}
	// realIndex is a ForwardReal of one row index after the first shuffle,
	// when the index goes through the client's row order. Before it, the
	// backing's own range check answers.
	realIndex := func(i int) func(*testing.T) error {
		return func(t *testing.T) error {
			c := configured(t)
			if err := c.EndRound(0); err != nil {
				t.Fatal(err)
			}
			_, err := c.ForwardReal([]int{0, i})
			return err
		}
	}
	cases := []struct {
		name string
		call func(*testing.T) error
		want string
	}{
		{"Configure/slice width 0", configure(func(s *Setup) { s.SliceWidth = 0 }), "invalid widths"},
		{"Configure/disc width -1", configure(func(s *Setup) { s.DiscWidth = -1 }), "invalid widths"},
		{"Configure/generator block width 0", configure(func(s *Setup) { s.GenBlockWidth = 0 }), "invalid widths"},
		{"Configure/learning rate 0", configure(func(s *Setup) { s.LR = 0 }), "invalid learning rate"},
		{"Configure/learning rate -1e-3", configure(func(s *Setup) { s.LR = -1e-3 }), "invalid learning rate"},
		{"Configure/learning rate NaN", configure(func(s *Setup) { s.LR = math.NaN() }), "invalid learning rate"},
		{"Configure/learning rate +Inf", configure(func(s *Setup) { s.LR = math.Inf(1) }), "invalid learning rate"},
		{"ForwardReal/row index past the table", realIndex(rows), "out of range"},
		{"ForwardReal/negative row index", realIndex(-1), "out of range"},
		{"ForwardSynthetic/no slice", func(t *testing.T) error {
			_, err := configured(t).ForwardSynthetic(nil, PhaseDiscriminator)
			return err
		}, "no generator slice"},
		{"GenerateRows/no slice", func(t *testing.T) error {
			return configured(t).GenerateRows(nil)
		}, "no generator slice"},
		{"BackwardDisc/no synthetic-branch gradient", func(t *testing.T) error {
			c, _, gradReal := critic(t)
			return c.BackwardDisc(nil, gradReal)
		}, "no synthetic-branch gradient"},
		{"BackwardDisc/no real-branch gradient", func(t *testing.T) error {
			c, gradSynth, _ := critic(t)
			return c.BackwardDisc(gradSynth, nil)
		}, "no real-branch gradient"},
		{"BackwardGen/no gradient", func(t *testing.T) error {
			c := configured(t)
			if _, err := c.ForwardSynthetic(tensor.New(4, setup.SliceWidth), PhaseGenerator); err != nil {
				t.Fatal(err)
			}
			_, err := c.BackwardGen(nil, false)
			return err
		}, "no generator gradient"},
		{"Publish/nothing generated", func(t *testing.T) error {
			_, err := configured(t).Publish()
			return err
		}, "nothing to publish"},
		// An empty table has no guard of its own: the encoder's fit, the
		// sampler and the gtvcol writer each refuse theirs.
		{"NewLocalClientStored/no rows", func(t *testing.T) error {
			ta, _ := twoClientTables(t, rows, 3)
			_, err := NewLocalClient(ta.SliceRows(0, 0), NewShuffleCoordinator(1), 1)
			return err
		}, "gmm: empty data"},
		{"NewLocalClientStored/no rows, categorical only", func(t *testing.T) error {
			cat, err := encoding.NewTable([]encoding.ColumnSpec{{Name: "c", Kind: encoding.KindCategorical, Categories: []string{"a", "b"}}}, tensor.New(0, 1))
			if err != nil {
				t.Fatal(err)
			}
			_, err = NewLocalClient(cat, NewShuffleCoordinator(1), 1)
			return err
		}, "condvec: empty table"},
		{"NewLocalClientStored/no columns", func(t *testing.T) error {
			none, err := encoding.NewTable(nil, tensor.New(rows, 0))
			if err != nil {
				t.Fatal(err)
			}
			_, err = NewLocalClient(none, NewShuffleCoordinator(1), 1)
			return err
		}, "invalid column count 0"},
		{"NewLocalClientStored/no shuffle coordinator", func(t *testing.T) error {
			ta, _ := twoClientTables(t, rows, 3)
			_, err := NewLocalClient(ta, nil, 1)
			return err
		}, "requires a shuffle coordinator"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked instead of returning an error: %v", r)
				}
			}()
			err := tc.call(t)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
