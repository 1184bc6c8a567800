// Package repro's root benchmarks regenerate every table and figure of the
// GTV paper at smoke scale (one full experiment per benchmark iteration).
// Full-scale regeneration with recorded output is done by
// cmd/gtv-experiments; see EXPERIMENTS.md. Micro-benchmarks for the
// numeric substrates live in their own packages (tensor, autograd, gmm).
package main

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/experiments"
	"repro/internal/vfl"
)

// benchScale is small enough that one experiment iteration completes in
// seconds; pass -rows etc. to cmd/gtv-experiments for the recorded runs.
func benchScale() experiments.Scale {
	s := experiments.SmokeScale()
	s.Datasets = []string{"loan"}
	s.Rounds = 6
	return s
}

var (
	planG20 = vfl.Plan{DiscServer: 2, GenClient: 2} // paper's D_0^2 G_2^0
	planG02 = vfl.Plan{DiscServer: 2, GenServer: 2} // paper's D_0^2 G_0^2
)

// BenchmarkFig3MotivationCaseStudy regenerates Fig. 3 (Shapley-ranked
// feature settings A/B/C vs MLP F1).
func BenchmarkFig3MotivationCaseStudy(b *testing.B) {
	s := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig3(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8NeuralNetworkPartition regenerates Fig. 8 (nine partition
// plans + centralized baseline across the quality metrics).
func BenchmarkFig8NeuralNetworkPartition(b *testing.B) {
	s := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10DataPartitionD20G02 regenerates Fig. 10 (1090/5050/9010
// Shapley splits under the generator-on-clients plan).
func BenchmarkFig10DataPartitionD20G02(b *testing.B) {
	s := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunDataPartition(s, planG20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11DataPartitionD20G20 regenerates Fig. 11 (same splits under
// the generator-on-server plan).
func BenchmarkFig11DataPartitionD20G20(b *testing.B) {
	s := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunDataPartition(s, planG02); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2DiffCorrDataPartition regenerates Table 2 (Diff.Corr for
// both plans across the three data partitions).
func BenchmarkTable2DiffCorrDataPartition(b *testing.B) {
	s := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r20, err := experiments.RunDataPartition(s, planG20)
		if err != nil {
			b.Fatal(err)
		}
		r02, err := experiments.RunDataPartition(s, planG02)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderTable2(io.Discard, []*experiments.DataPartitionResult{r20, r02}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12ClientCountG02 regenerates Fig. 12 (2-3 clients, default
// vs enlarged generator, generator-on-server plan).
func BenchmarkFig12ClientCountG02(b *testing.B) {
	s := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunClientCount(s, planG02, []int{2, 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13ClientCountG20 regenerates Fig. 13 (same sweep for the
// generator-on-clients plan).
func BenchmarkFig13ClientCountG20(b *testing.B) {
	s := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunClientCount(s, planG20, []int{2, 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3DiffCorrClientCount regenerates Table 3 (Diff.Corr across
// client counts, default/enlarged generators, both plans).
func BenchmarkTable3DiffCorrClientCount(b *testing.B) {
	s := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r20, err := experiments.RunClientCount(s, planG20, []int{2, 3})
		if err != nil {
			b.Fatal(err)
		}
		r02, err := experiments.RunClientCount(s, planG02, []int{2, 3})
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderTable3(io.Discard, []*experiments.ClientCountResult{r20, r02}, s.Datasets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGTVTrainingRound measures one full distributed round (critic
// steps + generator step + shared shuffle), comparing the sequential driver
// (parallel=1) against the concurrent fan-out (parallel=0) at two federation
// sizes. Both settings produce bit-identical models; only wall-clock
// differs.
func BenchmarkGTVTrainingRound(b *testing.B) {
	for _, clients := range []int{2, 4} {
		for _, par := range []int{1, 0} {
			clients, par := clients, par
			mode := "concurrent"
			if par == 1 {
				mode = "sequential"
			}
			b.Run(fmt.Sprintf("clients=%d/%s", clients, mode), func(b *testing.B) {
				d, err := datasets.Generate("intrusion", datasets.Config{Rows: 300, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				assignment, err := core.EvenAssignment(d.Table.Cols(), clients)
				if err != nil {
					b.Fatal(err)
				}
				opts := core.DefaultOptions()
				opts.Rounds = 1
				opts.Parallelism = par
				g, err := core.NewFromAssignment(d.Table, assignment, clients, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := g.TrainRound(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGTVTrainingRoundLatency repeats the sequential-vs-concurrent
// comparison with a simulated 2ms transport delay on every client call —
// the realistic deployment regime, where round time is dominated by network
// latency rather than local matrix math. The concurrent driver overlaps the
// per-client waits, so it wins even on a single core. The binary variant
// runs the same delayed clients behind real TCP loopback gtvwire
// transports under the concurrent driver.
func BenchmarkGTVTrainingRoundLatency(b *testing.B) {
	const numClients = 4
	run := func(par int, binary bool) func(*testing.B) {
		return func(b *testing.B) {
			d, err := datasets.Generate("intrusion", datasets.Config{Rows: 300, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			assignment, err := core.EvenAssignment(d.Table.Cols(), numClients)
			if err != nil {
				b.Fatal(err)
			}
			parts, err := d.Table.VerticalSplit(assignment, numClients)
			if err != nil {
				b.Fatal(err)
			}
			coord := vfl.NewShuffleCoordinator(7)
			clients := make([]vfl.Client, numClients)
			for i, part := range parts {
				lc, err := vfl.NewLocalClient(part, coord, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				slow := vfl.NewFaultyTransport(lc)
				slow.SetDelay(2 * time.Millisecond)
				clients[i] = slow
				if binary {
					lis, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						b.Fatal(err)
					}
					b.Cleanup(func() { lis.Close() })
					go func() { _ = vfl.ServeClientWire(lis, slow) }()
					proxy, err := vfl.DialWireClient("tcp", lis.Addr().String())
					if err != nil {
						b.Fatal(err)
					}
					b.Cleanup(func() { proxy.Close() })
					clients[i] = proxy
				}
			}
			cfg := vfl.DefaultConfig()
			cfg.Plan = planG20
			cfg.Rounds = 1
			cfg.Parallelism = par
			srv, err := vfl.NewServer(clients, cfg)
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

// BenchmarkGTVSynthesize measures joint synthesis throughput.
func BenchmarkGTVSynthesize(b *testing.B) {
	d, err := datasets.Generate("loan", datasets.Config{Rows: 300, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	assignment, err := core.EvenAssignment(d.Table.Cols(), 2)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Rounds = 2
	g, err := core.NewFromAssignment(d.Table, assignment, 2, opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := g.Train(nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Synthesize(256); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainingRoundByClients measures how one training round scales
// with the number of participating clients (the paper's scalability
// dimension, §4.3.3).
func BenchmarkTrainingRoundByClients(b *testing.B) {
	for _, clients := range []int{2, 3, 4, 5} {
		clients := clients
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			d, err := datasets.Generate("intrusion", datasets.Config{Rows: 300, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			assignment, err := core.EvenAssignment(d.Table.Cols(), clients)
			if err != nil {
				b.Fatal(err)
			}
			opts := core.DefaultOptions()
			opts.Rounds = 1
			g, err := core.NewFromAssignment(d.Table, assignment, clients, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := g.TrainRound(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainingRoundFaithfulVsBroadcast compares the paper's
// index-privacy mode (full local pass) against the cheaper broadcast mode.
func BenchmarkTrainingRoundFaithfulVsBroadcast(b *testing.B) {
	for _, faithful := range []bool{false, true} {
		faithful := faithful
		name := "broadcast"
		if faithful {
			name = "faithful"
		}
		b.Run(name, func(b *testing.B) {
			d, err := datasets.Generate("loan", datasets.Config{Rows: 500, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			assignment, err := core.EvenAssignment(d.Table.Cols(), 2)
			if err != nil {
				b.Fatal(err)
			}
			opts := core.DefaultOptions()
			opts.Rounds = 1
			opts.FaithfulRealPass = faithful
			g, err := core.NewFromAssignment(d.Table, assignment, 2, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := g.TrainRound(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
