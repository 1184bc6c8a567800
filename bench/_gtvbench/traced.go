package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/vfl"
)

// tracedFederation is the federation core.New would build, put together
// from vfl's public constructors with a tracedClient around every client
// the server calls (and, on a network transport, a second one around the
// client behind the listener).
type tracedFederation struct {
	server    *vfl.Server
	locals    []*vfl.LocalClient
	proxies   []io.Closer
	listeners []net.Listener
	served    []chan error // one per serve loop, closed when it returns
}

func (f *tracedFederation) TrainRound() (float64, float64, error) { return f.server.TrainRound() }
func (f *tracedFederation) Synthesize(n int) (*encoding.Table, error) {
	return f.server.Synthesize(n)
}
func (f *tracedFederation) Checkpoint(dir string) (string, error) {
	return f.server.SaveCheckpoint(dir)
}
func (f *tracedFederation) CommStats() vfl.CommStats { return f.server.CommStats() }

// Close tears down in core.GTV's order and then waits for the serve loops.
func (f *tracedFederation) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, p := range f.proxies {
		keep(p.Close())
	}
	for _, l := range f.listeners {
		keep(l.Close())
	}
	for _, ch := range f.served {
		keep(<-ch)
	}
	for _, c := range f.locals {
		keep(c.Close())
	}
	f.proxies, f.listeners, f.served, f.locals = nil, nil, nil, nil
	return first
}

// vflConfig is core.Options' mapping onto the server configuration.
func vflConfig(o core.Options) vfl.Config {
	return vfl.Config{
		Plan:             o.Plan,
		Rounds:           o.Rounds,
		DiscSteps:        o.DiscSteps,
		BatchSize:        o.BatchSize,
		NoiseDim:         o.NoiseDim,
		BlockDim:         o.BlockDim,
		GenBlockDim:      o.GenBlockDim,
		LR:               o.LR,
		Pac:              o.Pac,
		DPLogitNoise:     o.DPLogitNoise,
		Seed:             o.Seed,
		FaithfulRealPass: o.FaithfulRealPass,
		Parallelism:      o.Parallelism,
		GradTopK:         o.WireTopK,
	}
}

// buildPhases are the set-up phases of the hand-built federation.
type buildPhases struct {
	split, newClient, connect, newServer, total time.Duration
	parts                                       []*encoding.Table
}

// buildTraced constructs the traced federation, timing each phase.
func buildTraced(in input, clients int, opts core.Options, rec *recorder) (*tracedFederation, buildPhases, error) {
	var ph buildPhases
	if opts.Transport != "" && opts.Transport != "local" && opts.Transport != "binary" {
		return nil, ph, fmt.Errorf("traced run: transport %q not supported", opts.Transport)
	}
	wire := opts.Transport == "binary"
	leave := rec.enter("setup", -1)
	defer leave()
	buildStart := time.Now()

	start := time.Now()
	parts, err := in.table.VerticalSplit(in.assignment, clients)
	ph.split = time.Since(start)
	if err != nil {
		return nil, ph, err
	}
	ph.parts = parts

	f := &tracedFederation{}
	fail := func(err error) (*tracedFederation, buildPhases, error) {
		_ = f.Close() // set-up already failed; its error is the one to report
		return nil, ph, err
	}
	coord := vfl.NewShuffleCoordinator(opts.ShuffleSecret)
	ifaces := make([]vfl.Client, clients)
	start = time.Now()
	for i, t := range parts {
		st := encoding.Storage{Dir: opts.DataDir, Name: fmt.Sprintf("client-%d", i), CacheBytes: int64(opts.BlockCacheMB) << 20}
		c, err := vfl.NewLocalClientStored(t, coord, opts.Seed+int64(i)*1000, st)
		if err != nil {
			return fail(fmt.Errorf("client %d: %w", i, err))
		}
		f.locals = append(f.locals, c)
		side := "call"
		if wire {
			side = "served"
		}
		ifaces[i] = newTracedClient(c, rec, i, side)
	}
	ph.newClient = time.Since(start)

	if wire {
		start = time.Now()
		for i, c := range ifaces {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fail(fmt.Errorf("client %d listener: %w", i, err))
			}
			f.listeners = append(f.listeners, lis)
			done := make(chan error, 1)
			f.served = append(f.served, done)
			go func(serve vfl.Client) {
				done <- vfl.ServeClientWire(lis, serve)
				close(done)
			}(c)
			wc, err := vfl.DialWireClientPolicy("tcp", lis.Addr().String(), opts.CallPolicy)
			if err != nil {
				return fail(fmt.Errorf("dialing client %d: %w", i, err))
			}
			wc.SetFloat32(opts.WireFloat32)
			wc.SetDelta(opts.WireDelta)
			f.proxies = append(f.proxies, wc)
			outer := newTracedClient(wc, rec, i, "call")
			c.(*tracedClient).outer = outer
			ifaces[i] = outer
		}
		ph.connect = time.Since(start)
	}

	start = time.Now()
	server, err := vfl.NewServer(ifaces, vflConfig(opts))
	ph.newServer = time.Since(start)
	if err != nil {
		return fail(fmt.Errorf("server setup: %w", err))
	}
	f.server = server
	ph.total = time.Since(buildStart)
	return f, ph, nil
}

// trainMethods are the client calls of a training round, in protocol order.
var trainMethods = []string{"SampleCV", "ForwardSynthetic", "ForwardReal", "BackwardDisc", "BackwardGen", "EndRound"}

// checkNesting verifies that every span lies inside its parent.
func checkNesting(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= len(spans) {
			return fmt.Errorf("span %d (%s) names parent %d of %d", i, s.Name, s.Parent, len(spans))
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s, client %d) [%d,%d] leaves its parent %s [%d,%d]",
				i, s.Name, s.Client, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// roundBreakdown turns the spans of the timed rounds into per-layer
// metrics. Rounds numbered below firstRound are warm-up.
func roundBreakdown(out *outcome, spans []span, firstRound, rounds int, wire bool, fixed vfl.CommStats) error {
	kids := children(spans)
	perMethod := make(map[string]float64)
	perClient := make(map[int]float64)
	var selfNS, unionTotal, callTotal, servedUnion int64
	calls, seen := 0, 0
	for i, s := range spans {
		if s.Name != "round" || s.Round < firstRound {
			continue
		}
		seen++
		u := unionNS(pick(spans, kids[i]))
		if u > int64(s.dur()) {
			return fmt.Errorf("round %d: client calls cover %d ns of a %d ns round", s.Round, u, s.dur())
		}
		selfNS += int64(s.dur()) - u
		unionTotal += u
		var servedSpans []span
		for _, ci := range kids[i] {
			c := spans[ci]
			calls++
			callTotal += int64(c.dur())
			work := c
			if wire {
				served := kids[ci]
				if len(served) != 1 {
					return fmt.Errorf("round %d: %s on client %d has %d served spans, want 1", s.Round, c.Name, c.Client, len(served))
				}
				work = spans[served[0]]
				servedSpans = append(servedSpans, work)
			}
			perMethod[work.Name] += ms(work.dur())
			perClient[work.Client] += ms(work.dur())
		}
		servedUnion += unionNS(servedSpans)
	}
	if seen != rounds {
		return fmt.Errorf("%d timed round spans, want %d", seen, rounds)
	}
	n := float64(rounds)
	for _, m := range trainMethods {
		out.add("vfl.client."+m+"_ms_per_round", "ms", perMethod[m]/n, "summed over clients")
	}
	out.add("vfl.client.calls_per_round", "count", float64(calls)/n, "")
	var busiest, total float64
	for _, v := range perClient {
		total += v
		if v > busiest {
			busiest = v
		}
	}
	out.add("vfl.client.straggler_ratio", "ratio", busiest/(total/float64(len(perClient))), "busiest client / mean")
	out.add("vfl.server.self_ms_per_round", "ms", float64(selfNS)/1e6/n, "round span - union of client calls")
	out.add("vfl.server.fanout_overlap", "ratio", float64(callTotal)/float64(unionTotal), "sum of client calls / their union; 1 = sequential")
	if !wire {
		out.absent("vfl.wire.self_ms_per_round", "ms")
		out.absent("vfl.wire.bytes_per_call", "B")
		for _, m := range trainMethods[:5] {
			out.absent("vfl.wire."+m+"_bytes_per_round", "B")
		}
		return nil
	}
	// Union against union, not span against span: with several calls in
	// flight on fewer cores, a proxy-side span also waits for the other
	// clients' compute, which is not the wire's time.
	out.add("vfl.wire.self_ms_per_round", "ms", float64(unionTotal-servedUnion)/1e6/n, "union of proxy-side spans - union of served-side spans")
	var wireBytes int64
	byName := make(map[string]int64)
	for i, v := range fixed.WireBytesByMethod {
		byName[vfl.WireMethodLabel(i)] = v
		wireBytes += v
	}
	out.add("vfl.wire.bytes_per_call", "B", float64(wireBytes)/float64(calls), "")
	for _, m := range trainMethods[:5] {
		out.add("vfl.wire."+m+"_bytes_per_round", "B", float64(byName[m])/n, "exact")
	}
	return nil
}

// synthBreakdown reports where Synthesize spent its time.
func synthBreakdown(out *outcome, spans []span, wire bool, krows float64) {
	kids := children(spans)
	var gen, pub float64
	var selfNS int64
	for i, s := range spans {
		if s.Name != "synthesize" {
			continue
		}
		selfNS += int64(s.dur()) - unionNS(pick(spans, kids[i]))
		for _, ci := range kids[i] {
			work := spans[ci]
			if wire {
				if served := kids[ci]; len(served) == 1 {
					work = spans[served[0]]
				}
			}
			switch work.Name {
			case "GenerateRows":
				gen += ms(work.dur())
			case "Publish":
				pub += ms(work.dur())
			}
		}
	}
	out.add("vfl.client.GenerateRows_ms_per_krow", "ms", gen/krows, "summed over clients")
	out.add("vfl.client.Publish_ms_per_krow", "ms", pub/krows, "summed over clients")
	out.add("vfl.server.synth_self_ms_per_krow", "ms", float64(selfNS)/1e6/krows, "Synthesize span - union of client calls")
}

// runTraced is the second, separate run: the same workload with a third of
// the timed rounds over the hand-built, decorated federation, then the same
// rounds untraced through core for the overhead and the digest comparison,
// then the layer probes.
func runTraced(w workload, seed int64, dirs runDirs, spanDir string) (*outcome, error) {
	out := &outcome{workload: w.name}
	in, err := w.generate(seed)
	if err != nil {
		return out, err
	}
	out.infof("datagen_s %.3f (untimed: %s, %d rows)", in.genSeconds, w.dataset, w.rows)
	opts := w.withStorage(seed, dirs.store)
	switch w.store {
	case "cold":
		if err := emptyDir(dirs.store); err != nil {
			return out, err
		}
	case "warm":
		if err := ensureStore(w, seed, dirs.store); err != nil {
			return out, err
		}
	}
	wire := opts.Transport == "binary"

	rec := newRecorder()
	runtime.GC()
	fed, ph, err := buildTraced(in, w.clients, opts, rec)
	if out.ops.done(err) != nil {
		return out, err
	}
	if w.store == "cold" {
		if err := writeMarker(w, seed, dirs.store); err != nil {
			return out, err
		}
	}
	d, err := drive(w, in, fed, rec, drivePlan{minRounds: w.fixedRounds, checkpoints: 5, synthCalls: synthReps}, dirs.sub("traced"), &out.ops)
	if cerr := fed.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing the traced federation: %w", cerr)
	}
	if err != nil {
		return out, err
	}
	spans := rec.snapshot()
	spanFile := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed-%d.json", w.name, seed))
	if err := rec.writeJSON(spanFile); err != nil {
		return out, err
	}
	out.infof("spans %d written to %s", len(spans), spanFile)
	if err := checkNesting(spans); err != nil {
		out.ops.failed++
		return out, err
	}

	// The same rounds, untraced, through the product API. A cold workload's
	// store was written by the traced build a moment ago, so this
	// construction opens it; the rounds are the same either way.
	g, err := core.NewFromAssignment(in.table, in.assignment, w.clients, opts)
	if out.ops.done(err) != nil {
		return out, err
	}
	base, err := drive(w, in, g, nil, drivePlan{minRounds: w.fixedRounds, checkpoints: 1}, dirs.sub("untraced"), &out.ops)
	if cerr := g.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing the untraced federation: %w", cerr)
	}
	if err != nil {
		return out, err
	}
	if base.digest != d.digest {
		out.ops.failed++
		return out, fmt.Errorf("trajectory digest differs: traced %s, untraced %s", d.digest, base.digest)
	}
	if base.fixedComm != d.fixedComm {
		out.ops.failed++
		return out, errors.New("CommStats differ between the traced and the untraced federation")
	}
	out.digest = d.digest

	if err := roundBreakdown(out, spans, w.warmup, w.fixedRounds, wire, d.fixedComm); err != nil {
		out.ops.failed++
		return out, err
	}
	synthBreakdown(out, spans, wire, synthReps*float64(w.synthN)/1000)

	out.add("encoding.split_ms", "ms", ms(ph.split), "VerticalSplit")
	out.add("vfl.new_client_ms", "ms", ms(ph.newClient), "NewLocalClientStored, all clients")
	if wire {
		out.add("vfl.connect_ms", "ms", ms(ph.connect), "listen + ServeClientWire + dial, all clients")
	} else {
		out.absent("vfl.connect_ms", "ms")
	}
	out.add("vfl.new_server_ms", "ms", ms(ph.newServer), "NewServer: Info + Configure + top models")
	phaseSum := ph.split + ph.newClient + ph.connect + ph.newServer
	out.infof("setup phases sum to %.1f ms of a %.1f ms build (%.1f%%)", ms(phaseSum), ms(ph.total), 100*float64(phaseSum)/float64(ph.total))
	if r := float64(phaseSum) / float64(ph.total); r < 0.9 || r > 1.1 {
		out.ops.failed++
		return out, fmt.Errorf("setup phases cover %.0f%% of the build, want within 10%%", 100*r)
	}

	if err := runProbes(out, w, in, ph.parts[0], opts, dirs); err != nil {
		return out, err
	}

	out.add("snap.save_ms_p50", "ms", median(wallMS(d.snaps)), fmt.Sprintf("%d Checkpoint calls", len(d.snaps)))
	out.add("snap.bytes", "B", float64(d.snapBytes), "exact")
	out.add("runtime.alloc_mb_per_round", "MiB", base.allocMB, "untraced rounds")
	out.add("runtime.gc_cycles_per_round", "count", base.gcCycles, "untraced rounds, the harness's forced collections not counted")
	out.add("runtime.gc_pause_ms_per_round", "ms", base.gcPauseMS, "untraced rounds, forced collections included")
	out.add("core.round_ms_p90", "ms", percentile(refMS(base.rounds), 90),
		fmt.Sprintf("untraced, %d rounds: indicative only, %d samples beyond", len(base.rounds), len(base.rounds)/10))
	traced, untraced := median(refMS(d.rounds)), median(refMS(base.rounds))
	out.add("trace.overhead_pct", "%", 100*(traced/untraced-1), fmt.Sprintf("traced round_ms_p50 %.3f / untraced %.3f - 1", traced, untraced))
	out.infof("final_critic_loss %.6g", d.dLoss)
	out.infof("final_generator_loss %.6g", d.gLoss)
	return out, nil
}
