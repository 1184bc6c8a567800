package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
	"repro/internal/vfl"
)

// tiny shrinks a workload to sizes a unit test can afford; the shapes of
// the federation (clients, plan, transport, store kind) stay.
func tiny(w *workload) {
	w.rows = 400
	w.setupReps = 2
	w.warmup = 1
	w.fixedRounds = 2
	w.minRounds = 3
	w.synthN = 90
	w.kernelIters = 1
	full := w.options
	w.options = func(seed int64) core.Options {
		o := full(seed)
		o.BatchSize = 20
		o.BlockDim = 16
		o.NoiseDim = 8
		return o
	}
}

func useTinySizes(t *testing.T) {
	t.Helper()
	testSizes = tiny
	t.Cleanup(func() { testSizes = nil })
}

// declared is the part of BENCHMARK.json the self-test checks against.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []declaredMetric `json:"end_to_end"`
	PerLayer  []declaredMetric `json:"per_layer"`
	Seconds   float64          `json:"run_seconds"`
}

type declaredMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// runMain runs the program in this process and returns its last line.
func runMain(t *testing.T, args ...string) (resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("gtvbench %v: exit %d\n%s\n%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, lines[len(lines)-1])
	}
	return res, stdout.String()
}

func TestDeclarationsMatch(t *testing.T) {
	d := readDeclared(t)
	if d.Seconds != defaultSeconds {
		t.Errorf("run_seconds %v, the -seconds default is %v", d.Seconds, float64(defaultSeconds))
	}
	ws := workloads()
	if len(d.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d defined", len(d.Workloads), len(ws))
	}
	for i, w := range ws {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q / %q, defined %q / %q", i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(d.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := d.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: declared %+v, defined %+v", i, got, m)
		}
	}
}

// TestEveryDeclaredMetricIsEmitted runs all four workloads at tiny sizes in
// both modes and compares the names and units on the result line with
// BENCHMARK.json. The order matters: rows-warm opens rows-cold's store.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	useTinySizes(t)
	d := readDeclared(t)
	work := t.TempDir()
	for trace, want := range [][]declaredMetric{d.EndToEnd, d.PerLayer} {
		for _, w := range workloads() {
			res, out := runMain(t, "-workload", w.name, "-trace", []string{"0", "1"}[trace], "-seconds", "0", "-work", work, "-seed", "3")
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics emitted, %d declared", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace %d: %s not emitted", w.name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace %d: %s in %q, declared %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if !strings.Contains(out, "trajectory_digest ") || !strings.Contains(out, "ops_failed 0") {
				t.Errorf("%s trace %d: digest or ops lines missing:\n%s", w.name, trace, out)
			}
			if w.name == "wire-4c" && trace == 1 && res.Metrics["vfl.wire.self_ms_per_round"].Value <= 0 {
				t.Errorf("wire-4c: vfl.wire.self_ms_per_round = %v, want > 0", res.Metrics["vfl.wire.self_ms_per_round"].Value)
			}
		}
	}
}

// TestSpansNest reads the span file a traced run writes: every span lies
// inside its parent and children never add up to more than their parent.
func TestSpansNest(t *testing.T) {
	useTinySizes(t)
	work, out := t.TempDir(), t.TempDir()
	runMain(t, "-workload", "wire-4c", "-trace", "1", "-seconds", "0", "-work", work, "-out", out)
	data, err := os.ReadFile(filepath.Join(out, "spans-wire-4c-seed-1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	sides := map[string]int{}
	for i, kids := range children(spans) {
		if i < 0 {
			continue
		}
		if u := unionNS(pick(spans, kids)); u > int64(spans[i].dur()) {
			t.Errorf("span %d (%s): children cover %d ns of %d", i, spans[i].Name, u, spans[i].dur())
		}
	}
	for _, s := range spans {
		sides[s.Side]++
	}
	if sides["call"] == 0 || sides["call"] != sides["served"] {
		t.Errorf("spans by side %v: want as many served as call spans", sides)
	}
}

func fileDigest(t *testing.T, path string) [32]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(data)
}

// TestDecoratorIsTransparent trains the decorated, hand-built federation
// beside the one core builds: byte counts (WireBytes and WireBytesByMethod
// included) and checkpoints match, and a checkpoint taken through one
// restores through the decorators of the other.
func TestDecoratorIsTransparent(t *testing.T) {
	useTinySizes(t)
	w, err := findWorkload("wire-4c")
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.generate(5)
	if err != nil {
		t.Fatal(err)
	}
	opts := w.options(5)
	plain, err := core.NewFromAssignment(in.table, in.assignment, w.clients, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	traced, _, err := buildTraced(in, w.clients, opts, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()

	for i := 0; i < 2; i++ {
		if _, _, err := plain.TrainRound(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := traced.TrainRound(); err != nil {
			t.Fatal(err)
		}
	}
	a, b := plain.CommStats(), traced.CommStats()
	if a != b {
		t.Fatalf("CommStats differ:\n plain  %v\n traced %v", a, b)
	}
	if a.WireBytes == 0 || a.WireBytesByMethod == (vfl.WireMethodBytes{}) {
		t.Fatalf("no wire bytes counted: %v", a)
	}
	plainDir, tracedDir := t.TempDir(), t.TempDir()
	p1, err := plain.Checkpoint(plainDir)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := traced.Checkpoint(tracedDir)
	if err != nil {
		t.Fatal(err)
	}
	if fileDigest(t, p1) != fileDigest(t, p2) {
		t.Fatal("checkpoints differ after the same two rounds")
	}

	// A fresh decorated federation takes up the plain one's checkpoint
	// through the decorators' Restore, and the trajectories stay together.
	resumed, _, err := buildTraced(in, w.clients, opts, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if rounds, ok, err := resumed.server.RestoreLatestCheckpoint(plainDir); err != nil || !ok || rounds != 2 {
		t.Fatalf("restore: rounds=%d ok=%v err=%v", rounds, ok, err)
	}
	if _, _, err := plain.TrainRound(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := resumed.TrainRound(); err != nil {
		t.Fatal(err)
	}
	if p1, err = plain.Checkpoint(plainDir); err != nil {
		t.Fatal(err)
	}
	if p2, err = resumed.Checkpoint(tracedDir); err != nil {
		t.Fatal(err)
	}
	if fileDigest(t, p1) != fileDigest(t, p2) {
		t.Fatal("checkpoints differ after restoring through the decorators")
	}
}

// failingClient fails its n-th ForwardReal.
type failingClient struct {
	vfl.Client
	left int
}

func (c *failingClient) ForwardReal(idx []int) (*tensor.Dense, error) {
	if c.left--; c.left < 0 {
		return nil, errors.New("injected failure")
	}
	return c.Client.ForwardReal(idx)
}

func TestFailingClientCallIsCounted(t *testing.T) {
	useTinySizes(t)
	w, err := findWorkload("paper-fed")
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.generate(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := w.options(1)
	parts, err := in.table.VerticalSplit(in.assignment, w.clients)
	if err != nil {
		t.Fatal(err)
	}
	coord := vfl.NewShuffleCoordinator(opts.ShuffleSecret)
	fed := &tracedFederation{}
	defer fed.Close()
	clients := make([]vfl.Client, len(parts))
	for i, p := range parts {
		c, err := vfl.NewLocalClient(p, coord, opts.Seed+int64(i)*1000)
		if err != nil {
			t.Fatal(err)
		}
		fed.locals = append(fed.locals, c)
		clients[i] = c
	}
	// One round makes DiscSteps ForwardReal calls per client: fail in the
	// second round.
	clients[1] = &failingClient{Client: clients[1], left: opts.DiscSteps + 1}
	if fed.server, err = vfl.NewServer(clients, vflConfig(opts)); err != nil {
		t.Fatal(err)
	}
	var o ops
	_, err = drive(w, in, fed, nil, drivePlan{minRounds: w.minRounds, checkpoints: 1, synthCalls: synthReps}, t.TempDir(), &o)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("drive error = %v, want the injected failure", err)
	}
	if o.failed != 1 || o.total != 2 {
		t.Fatalf("ops total %d failed %d, want 2 and 1", o.total, o.failed)
	}
}

// TestStoreOfAnotherBuildIsNotReused: the work directory outlives a change
// of the tree, and rows-warm must not measure files other code wrote.
func TestStoreOfAnotherBuildIsNotReused(t *testing.T) {
	w, err := findWorkload("rows-warm")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	current := func(seed int64) bool {
		t.Helper()
		ok, err := storeIsCurrent(w, seed, dir)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if current(1) {
		t.Fatal("an empty directory passes for a store")
	}
	if err := writeMarker(w, 1, dir); err != nil {
		t.Fatal(err)
	}
	if !current(1) || current(2) {
		t.Fatalf("after writing the marker of seed 1: current(1)=%v current(2)=%v", current(1), current(2))
	}
	marker, err := os.ReadFile(markerPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(string(marker), "binary=", "binary=00", 1)
	if err := os.WriteFile(markerPath(dir), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if current(1) {
		t.Fatal("a store marked by another binary passes for this build's")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([...], n=4) gives [2.75, 5.5, 8.25] for 1..10.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; got != want {
		t.Fatalf("quartileSpread = %v, want %v", got, want)
	}
}
