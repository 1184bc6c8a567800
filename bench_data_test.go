// Whole-process benchmarks of the gtvcol data plane: gtv-train runs as a
// subprocess (so peak RSS is the process's real high-water mark, not the
// test binary's) with the encoded matrix resident in memory versus
// streamed from an on-disk columnar store. Recorded as JSON in
// BENCH_data.json by `make bench-data`; see EXPERIMENTS.md.
//
// What "training" covers changed at PR 15: gtv-train used to start its
// training clock before core.NewCentralized / NewFromAssignment, so the
// rows in BENCH_data.json (recorded at PR 10 and not rerun since — the
// target takes two hours) bill GMM fitting, encoding and the gtvcol write
// as training, which is most of every mem and streamed row. From PR 15 on
// gtv-train prints construction as its own `setup: <duration>` line and the
// `training: N rounds in <duration>` line this file parses covers the
// rounds only; a rerun of `make bench-data` records that.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// dataPlaneRounds and the default batch/disc-steps determine how many real
// rows each run gathers; every configuration samples the same count, so
// rows/s ratios compare sampling paths, not workloads.
const (
	dataPlaneRounds    = 20
	dataPlaneBatch     = 64
	dataPlaneDiscSteps = 3
)

var trainingLineRE = regexp.MustCompile(`training: (\d+) rounds in ([^\s]+)`)

// runGTVTrain execs one gtv-train run and returns the training-phase wall
// time (rounds only, see the package comment) and the subprocess's peak RSS
// in bytes.
func runGTVTrain(b *testing.B, bin string, args []string) (trainTime time.Duration, peakRSS int64) {
	b.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		b.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	m := trainingLineRE.FindSubmatch(out)
	if m == nil {
		b.Fatalf("no training-time line in output:\n%s", out)
	}
	d, err := time.ParseDuration(string(m[2]))
	if err != nil {
		b.Fatalf("parsing training time %q: %v", m[2], err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		b.Fatal("no rusage for subprocess")
	}
	return d, ru.Maxrss * 1024 // Maxrss is KiB on Linux
}

func dirBytes(b *testing.B, dir string) int64 {
	b.Helper()
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		b.Fatalf("sizing %s: %v", dir, err)
	}
	return total
}

// BenchmarkDataPlane runs gtv-train at 1M and 10M synthetic-Adult rows with
// the encoded matrix (a) resident in memory, (b) freshly encoded into a
// gtvcol store and streamed through the block cache, and (c) reread from
// the already-encoded store (the rerun path: fitting and encoding skipped
// entirely). Per run it reports training-phase sampling throughput, peak
// RSS, and the on-disk store size. Requires GTV_TRAIN_BIN (a built
// gtv-train binary); `make bench-data` sets it up.
func BenchmarkDataPlane(b *testing.B) {
	bin := os.Getenv("GTV_TRAIN_BIN")
	if bin == "" {
		b.Skip("GTV_TRAIN_BIN not set; run via `make bench-data`")
	}

	baseArgs := func(rows int, federated bool) []string {
		args := []string{
			"-dataset", "adult",
			"-rows", strconv.Itoa(rows),
			"-rounds", strconv.Itoa(dataPlaneRounds),
			"-batch", strconv.Itoa(dataPlaneBatch),
			"-disc-steps", strconv.Itoa(dataPlaneDiscSteps),
			"-seed", "7",
			"-skip-eval",
			"-log-every", "0",
		}
		if !federated {
			args = append(args, "-centralized")
		}
		return args
	}
	// Real rows gathered across the run: disc-steps batches per round.
	sampled := float64(dataPlaneRounds * dataPlaneDiscSteps * dataPlaneBatch)

	// The streamed sub-benchmarks encode into directories under the outer
	// benchmark's temp root (which outlives the sub-benchmarks); the
	// matching cached sub-benchmarks rerun against them.
	root := b.TempDir()
	dirs := map[string]string{}
	run := func(name string, rows int, federated bool, mode string) {
		b.Run(name, func(b *testing.B) {
			var trainTotal time.Duration
			var peakMax, disk int64
			for i := 0; i < b.N; i++ {
				args := baseArgs(rows, federated)
				switch mode {
				case "mem":
				case "streamed":
					dir := filepath.Join(root, fmt.Sprintf("%s-%d", name, i))
					if err := os.MkdirAll(dir, 0o755); err != nil {
						b.Fatal(err)
					}
					dirs[fmt.Sprintf("%d-%v", rows, federated)] = dir
					args = append(args, "-data-dir", dir, "-block-cache", "1024")
				case "cached":
					dir := dirs[fmt.Sprintf("%d-%v", rows, federated)]
					if dir == "" {
						b.Skip("streamed variant did not run")
					}
					args = append(args, "-data-dir", dir, "-block-cache", "1024")
				}
				trainTime, peak := runGTVTrain(b, bin, args)
				trainTotal += trainTime
				if peak > peakMax {
					peakMax = peak
				}
				if mode != "mem" {
					disk = dirBytes(b, dirs[fmt.Sprintf("%d-%v", rows, federated)])
				}
			}
			b.ReportMetric(sampled*float64(b.N)/trainTotal.Seconds(), "rows/s")
			b.ReportMetric(float64(peakMax)/(1<<20), "peakMB/run")
			if mode != "mem" {
				b.ReportMetric(float64(disk)/(1<<20), "diskMB/run")
			}
		})
	}

	run("centralized-1M-mem", 1_000_000, false, "mem")
	run("centralized-1M-streamed", 1_000_000, false, "streamed")
	run("centralized-1M-cached", 1_000_000, false, "cached")
	run("federated-1M-mem", 1_000_000, true, "mem")
	run("federated-1M-streamed", 1_000_000, true, "streamed")
	run("centralized-10M-mem", 10_000_000, false, "mem")
	run("centralized-10M-streamed", 10_000_000, false, "streamed")
	run("centralized-10M-cached", 10_000_000, false, "cached")
}
