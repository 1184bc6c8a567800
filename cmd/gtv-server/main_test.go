package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestServerDrivesClientProcesses is the multi-process deployment end to
// end: two real gtv-client processes on loopback ports of their own
// choosing, gtv-server's run in this process, a few rounds of training
// and a synthetic CSV at the end. Neither command takes a protocol flag
// any more — they speak gtvwire — so the test also holds them to that.
func TestServerDrivesClientProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs gtv-client processes")
	}
	dir := t.TempDir()
	clientBin := filepath.Join(dir, "gtv-client")
	if out, err := exec.Command("go", "build", "-o", clientBin, "../gtv-client").CombinedOutput(); err != nil {
		t.Fatalf("building gtv-client: %v\n%s", err, out)
	}

	out, err := exec.Command(clientBin, "-wire", "binary").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "flag provided but not defined: -wire") {
		t.Fatalf("gtv-client -wire: err %v, output:\n%s", err, out)
	}

	addrs := make([]string, 2)
	for i := range addrs {
		cmd := exec.Command(clientBin, "-listen", "127.0.0.1:0", "-dataset", "adult", "-rows", "300",
			"-client", strconv.Itoa(i), "-num-clients", strconv.Itoa(len(addrs)), "-secret", "42")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatalf("client %d stdout: %v", i, err)
		}
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting client %d: %v", i, err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		// "gtv-client 0/2 serving 7 columns of adult on 127.0.0.1:40123"
		line, err := bufio.NewReader(stdout).ReadString('\n')
		at := strings.LastIndex(line, " on ")
		if err != nil || at < 0 {
			t.Fatalf("client %d never said where it serves: %q, %v\n%s", i, line, err, stderr.String())
		}
		addrs[i] = strings.TrimSpace(line[at+len(" on "):])
	}

	synthOut := filepath.Join(dir, "synth.csv")
	err = run([]string{
		"-clients", strings.Join(addrs, ","), "-rounds", "4", "-disc-steps", "1", "-batch", "32",
		"-block", "32", "-noise", "16", "-log-every", "0", "-synth-rows", "50", "-synth-out", synthOut,
	})
	if err != nil {
		t.Fatalf("gtv-server run: %v", err)
	}
	data, err := os.ReadFile(synthOut)
	if err != nil {
		t.Fatalf("reading the synthetic CSV: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 51 || !strings.HasPrefix(lines[0], "age,") {
		t.Fatalf("synthetic CSV has %d lines starting %q, want a header and 50 rows", len(lines), lines[0])
	}
}

// TestServerHasNoWireFlag: one legal value is a constant, not an option.
func TestServerHasNoWireFlag(t *testing.T) {
	err := run([]string{"-wire", "binary"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -wire") {
		t.Fatalf("run -wire binary: %v", err)
	}
}
