package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestRunGTVTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	synthPath := filepath.Join(t.TempDir(), "synth.csv")
	var out bytes.Buffer
	err := run([]string{
		"-dataset", "loan", "-rows", "200", "-rounds", "6", "-batch", "32",
		"-block", "24", "-noise", "8", "-log-every", "3", "-synth-out", synthPath,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"GTV D2_0G2_0", "statistical similarity", "ML utility difference"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(synthPath)
	if err != nil {
		t.Fatalf("reading synth csv: %v", err)
	}
	if !strings.HasPrefix(string(data), "age,") {
		t.Fatalf("csv header = %q", strings.SplitN(string(data), "\n", 2)[0])
	}
}

func TestRunCentralizedTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	var out bytes.Buffer
	err := run([]string{
		"-dataset", "loan", "-rows", "200", "-rounds", "4", "-batch", "32",
		"-block", "24", "-noise", "8", "-centralized", "-log-every", "0",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "statistical similarity") {
		t.Fatalf("missing metrics output:\n%s", out.String())
	}
}

func TestRunRejectsBadPlan(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-plan", "garbage", "-rows", "100", "-rounds", "1"}, &out); err == nil {
		t.Fatal("expected plan parse error")
	}
}

func TestRunRejectsBadDataset(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dataset", "nope"}, &out); err == nil {
		t.Fatal("expected dataset error")
	}
}

// TestRunRejectsTooFewRows: a table too small to hold every target class
// twice is an error naming the dataset and the minimum, not a panic.
func TestRunRejectsTooFewRows(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-dataset", "adult", "-rows", "1"}, &out)
	if want := "datasets: adult needs at least 4 rows"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("-rows 1: error %v, want one containing %q", err, want)
	}
}

// TestCentralizedResumeMatchesUninterrupted: -centralized trained for k
// rounds with -checkpoint-dir, then resumed with -resume to n rounds,
// writes the same synthetic CSV, byte for byte, as one uninterrupted
// n-round run.
func TestCentralizedResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	dir := t.TempDir()
	common := []string{"-centralized", "-dataset", "loan", "-rows", "200", "-batch", "32",
		"-block", "24", "-noise", "8", "-disc-steps", "1", "-log-every", "0", "-skip-eval"}
	train := func(csv string, extra ...string) ([]byte, string) {
		t.Helper()
		var out bytes.Buffer
		path := filepath.Join(dir, csv)
		if err := run(append(append(append([]string(nil), common...), extra...), "-synth-out", path), &out); err != nil {
			t.Fatalf("run %v: %v\n%s", extra, err, out.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data, out.String()
	}
	ckpt := filepath.Join(dir, "ckpt")
	want, _ := train("full.csv", "-rounds", "5")
	train("first.csv", "-rounds", "2", "-checkpoint-dir", ckpt)
	got, out := train("resumed.csv", "-rounds", "5", "-checkpoint-dir", ckpt, "-resume")
	if !strings.Contains(out, "resumed centralized training at round 2\n") {
		t.Fatalf("the -resume run did not say it resumed at round 2:\n%s", out)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed run's CSV (%d bytes) differs from the uninterrupted run's (%d bytes)", len(got), len(want))
	}
}

// TestRunResumeNeedsCheckpointDir: -resume without -checkpoint-dir is an
// error, not a run from scratch.
func TestRunResumeNeedsCheckpointDir(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-centralized", "-dataset", "loan", "-rows", "100", "-rounds", "1", "-batch", "16",
		"-block", "8", "-noise", "4", "-log-every", "0", "-skip-eval", "-resume"}, &out)
	if err == nil || !strings.Contains(err.Error(), "CheckpointDir") {
		t.Fatalf("run -resume without -checkpoint-dir: %v", err)
	}
}

// TestStoredSplitRerun: with -centralized -skip-eval -data-dir, the first
// run generates the train split and stores it; a rerun trains from the
// stored split without generating the dataset and writes the same CSV, also
// when the encoded store is gone and the stored rows are encoded again; a
// run with another -rows fails the tag check and generates its own split.
func TestStoredSplitRerun(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	train := func(csv string, extra ...string) ([]byte, string) {
		t.Helper()
		args := []string{"-centralized", "-skip-eval", "-dataset", "loan", "-rounds", "2", "-batch", "32",
			"-block", "24", "-noise", "8", "-disc-steps", "1", "-log-every", "0", "-seed", "3",
			"-data-dir", data, "-synth-out", filepath.Join(dir, csv)}
		var out bytes.Buffer
		if err := run(append(args, extra...), &out); err != nil {
			t.Fatalf("run %s %v: %v\n%s", csv, extra, err, out.String())
		}
		got, err := os.ReadFile(filepath.Join(dir, csv))
		if err != nil {
			t.Fatal(err)
		}
		return got, out.String()
	}
	const stored = "(stored,"
	first, out := train("first.csv", "-rows", "200")
	if strings.Contains(out, stored) {
		t.Fatalf("the first run read a store that no run wrote:\n%s", out)
	}
	if runtime.GOARCH == "amd64" {
		const want = "06ae6ba45a363404d5865286d87fb98ba06f12292fb092c8b8b4cc79efae6695"
		if sum := sha256.Sum256(first); hex.EncodeToString(sum[:]) != want {
			t.Errorf("first run's CSV: sha256 %x, want %s", sum, want)
		}
	}
	for _, step := range []struct {
		name   string
		before func()
	}{
		{"rerun", func() {}},
		{"encoded store deleted", func() {
			if err := os.Remove(filepath.Join(data, "central.enc.gtvcol")); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		step.before()
		got, out := train(step.name+".csv", "-rows", "200")
		if !strings.Contains(out, stored) {
			t.Fatalf("%s: the run did not train from the stored split:\n%s", step.name, out)
		}
		if !bytes.Equal(got, first) {
			t.Fatalf("%s: CSV (%d bytes) differs from the first run's (%d bytes)", step.name, len(got), len(first))
		}
	}
	if _, out := train("other-rows.csv", "-rows", "220"); strings.Contains(out, stored) || !strings.Contains(out, "test rows") {
		t.Fatalf("-rows 220 did not regenerate its split:\n%s", out)
	}
}
