package main

import (
	"bytes"
	"os"
	"path/filepath"
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
