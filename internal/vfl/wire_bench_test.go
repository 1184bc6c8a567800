package vfl

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/condvec"
	"repro/internal/datasets"
	"repro/internal/encoding"
	"repro/internal/tensor"
)

// echoClient is a protocol stub whose BackwardGen returns a matrix the
// size of its input's boundary gradient, isolating transport cost (encode,
// frame, TCP round-trip, decode) from GAN math. BackwardGen is the
// representative call: one matrix each way per round trip, no state
// retained between calls on either transport.
type echoClient struct{ out *tensor.Dense }

func (c *echoClient) Info() (ClientInfo, error) { return ClientInfo{}, nil }
func (c *echoClient) Configure(Setup) error     { return nil }
func (c *echoClient) SampleCV(int, bool) (*condvec.Batch, error) {
	return &condvec.Batch{}, nil
}
func (c *echoClient) SampleCVFixed(int, int, int) (*condvec.Batch, error) {
	return &condvec.Batch{}, nil
}
func (c *echoClient) ForwardSynthetic(*tensor.Dense, Phase) (*tensor.Dense, error) {
	return c.out.Clone(), nil
}
func (c *echoClient) ForwardReal([]int) (*tensor.Dense, error)        { return c.out.Clone(), nil }
func (c *echoClient) BackwardDisc(*tensor.Dense, *tensor.Dense) error { return nil }
func (c *echoClient) BackwardGen(*tensor.Dense, bool) (*tensor.Dense, error) {
	// Clone is pooled; the wire server releases it after encoding, so the
	// reply buffer recycles across iterations like a real client's would.
	return c.out.Clone(), nil
}
func (c *echoClient) EndRound(int) error               { return nil }
func (c *echoClient) GenerateRows(*tensor.Dense) error { return nil }
func (c *echoClient) Snapshot() ([]byte, error)        { return nil, nil }
func (c *echoClient) Restore([]byte) error             { return nil }
func (c *echoClient) Publish() (*encoding.Table, error) {
	return nil, fmt.Errorf("echo client has no table")
}

// wireBenchPayloads builds the payload shapes the codec picks distinct
// layouts for, at the paper's batch-500 scale (and the one full-table
// reply). Every pattern is deterministic so runs are comparable.
func wireBenchPayloads(batch int) []struct {
	name    string
	payload *tensor.Dense
} {
	dense := func(width int) *tensor.Dense {
		m := tensor.New(batch, width)
		for i, data := 0, m.Data(); i < len(data); i++ {
			data[i] = float64(i%97) * 0.125
		}
		return m
	}
	// A conditional-vector batch: one-hot rows (plus a few all-zero ones).
	cv := tensor.New(batch, 64)
	for i := 0; i < batch; i++ {
		if i%17 != 0 {
			cv.Set(i, (i*7)%64, 1)
		}
	}
	// A hard-selection mask: 0/1 at ~10% density, several hits per row.
	mask := tensor.New(batch, 768)
	for i := 0; i < batch; i++ {
		for j := 0; j < 768; j++ {
			if (i*7+j)%10 == 0 {
				mask.Set(i, j, 1)
			}
		}
	}
	// A top-k sparsified gradient: ~5% arbitrary nonzero values.
	topk := tensor.New(batch, 768)
	for i := 0; i < batch; i++ {
		for j := 0; j < 768; j++ {
			if (i*13+j)%20 == 0 {
				topk.Set(i, j, float64(i+j)*0.37-50)
			}
		}
	}
	// Critic logits as a client's D_i^b block sends them — Linear, then
	// LeakyReLU(0.2), then Dropout(0.5): a quarter +0, a quarter -0, half
	// values, the masked layout's case. 17 columns is a wire-4c client's
	// block; 5000 rows its reply in the full-table real pass.
	logits := func(rows int) *tensor.Dense {
		rng := rand.New(rand.NewSource(1))
		act := tensor.LeakyReLU(tensor.Randn(rng, rows, 17, 0, 1), 0.2)
		out, mask := tensor.Dropout(rng, act, 0.5)
		act.Release()
		mask.Release()
		return out
	}
	return []struct {
		name    string
		payload *tensor.Dense
	}{
		{"rows=5000/logits-dropout", logits(5000)},
		{fmt.Sprintf("batch=%d/logits-dropout", batch), logits(batch)},
		{fmt.Sprintf("batch=%d/width=%d", batch, 64), dense(64)},
		{fmt.Sprintf("batch=%d/width=%d", batch, 256), dense(256)},
		{fmt.Sprintf("batch=%d/width=%d", batch, 768), dense(768)},
		{fmt.Sprintf("batch=%d/cv-sparse", batch), cv},
		{fmt.Sprintf("batch=%d/mask", batch), mask},
		{fmt.Sprintf("batch=%d/topk", batch), topk},
	}
}

// BenchmarkWireRoundTrip measures one full protocol call (matrix out,
// matrix back) over TCP loopback on the gtvwire binary codec (f64 and the
// opt-in f32 payload mode) across the payload classes the encoder picks
// different layouts for: post-dropout critic logits (masked layout), dense
// activations at three boundary widths, one-hot CV batches, 0/1 masks
// (bitmap layout) and top-k sparsified gradients (index-list layout). The
// wire_bytes/op metric is the measured framed traffic per call, so the
// bytes on the wire sit next to latency.
func BenchmarkWireRoundTrip(b *testing.B) {
	const batch = 500
	for _, tc := range wireBenchPayloads(batch) {
		payload := tc.payload
		echo := &echoClient{out: payload.Clone()}

		run := func(proxy *WireClient) func(*testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(2 * 8 * int64(payload.Rows()) * int64(payload.Cols()))
				startBytes := proxy.WireBytes()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err := proxy.BackwardGen(payload, false)
					if err != nil {
						b.Fatal(err)
					}
					out.Release()
				}
				b.ReportMetric(float64(proxy.WireBytes()-startBytes)/float64(b.N), "wire_bytes/op")
			}
		}

		b.Run(tc.name+"/binary", run(serveWire(b, echo)))
		b.Run(tc.name+"/binary-f32", func(b *testing.B) {
			proxy := serveWire(b, echo)
			proxy.SetFloat32(true)
			run(proxy)(b)
		})
	}
}

// splitDataset generates a named dataset (seed 1) and splits its columns
// over the clients in contiguous runs, as even as they divide.
func splitDataset(b *testing.B, name string, rows, clients int) []*encoding.Table {
	b.Helper()
	d, err := datasets.Generate(name, datasets.Config{Rows: rows, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	assignment := make([]int, d.Table.Cols())
	for j := range assignment {
		assignment[j] = j * clients / len(assignment)
	}
	parts, err := d.Table.VerticalSplit(assignment, clients)
	if err != nil {
		b.Fatal(err)
	}
	return parts
}

// BenchmarkGTVTrainingRoundLatency is the fan-out's reason to exist: one
// round of four clients with a simulated 2ms transport delay on every
// client call — the deployment regime, where a round is network waits, not
// matrix math — under the sequential driver (Parallelism 1) and the
// concurrent one (0). The concurrent driver overlaps the per-client waits,
// so it wins even on a single core; both train bit-identical models. The
// binary variant puts the same delayed clients behind TCP loopback gtvwire
// transports under the concurrent driver.
func BenchmarkGTVTrainingRoundLatency(b *testing.B) {
	const numClients = 4
	run := func(par int, binary bool) func(*testing.B) {
		return func(b *testing.B) {
			parts := splitDataset(b, "intrusion", 300, numClients)
			coord := NewShuffleCoordinator(7)
			clients := make([]Client, numClients)
			for i, part := range parts {
				lc := newLocal(b, part, coord, int64(i+1))
				slow := NewFaultyTransport(lc)
				slow.SetDelay(2 * time.Millisecond)
				clients[i] = slow
				if binary {
					clients[i] = serveWire(b, slow)
				}
			}
			cfg := DefaultConfig()
			cfg.Plan = Plan{DiscServer: 2, GenClient: 2}
			cfg.Rounds = 1
			cfg.Parallelism = par
			srv, err := NewServer(clients, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := srv.TrainRound(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run(fmt.Sprintf("clients=%d/delay=2ms/sequential", numClients), run(1, false))
	b.Run(fmt.Sprintf("clients=%d/delay=2ms/concurrent", numClients), run(0, false))
	b.Run(fmt.Sprintf("clients=%d/delay=2ms/concurrent/binary", numClients), run(0, true))
}
