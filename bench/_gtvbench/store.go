package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"repro/internal/core"
)

// storeDir is the DataDir of the rows-* workloads. It outlives the run, so
// that rows-warm finds what rows-cold wrote.
func storeDir(work string) string { return filepath.Join(work, "store") }

func markerPath(dir string) string { return filepath.Join(dir, "built-for") }

// storeMarker names what a store directory was built for and by which
// build: the work directory survives a change of the tree, and a store
// written by other code must not be measured as this tree's. The running
// binary holds every package of the repository, so its hash stands for the
// tree whether or not the checkout is a git repository.
func (w workload) storeMarker(seed int64) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(self)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", self, err)
	}
	return fmt.Sprintf("%s rows=%d clients=%d seed=%d binary=%x\n", w.dataset, w.rows, w.clients, seed, h.Sum(nil)), nil
}

func writeMarker(w workload, seed int64, dir string) error {
	marker, err := w.storeMarker(seed)
	if err != nil {
		return err
	}
	return os.WriteFile(markerPath(dir), []byte(marker), 0o644)
}

// storeIsCurrent says whether dir was left by this build for this seed.
func storeIsCurrent(w workload, seed int64, dir string) (bool, error) {
	want, err := w.storeMarker(seed)
	if err != nil {
		return false, err
	}
	have, err := os.ReadFile(markerPath(dir))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	return string(have) == want, err
}

// ensureStore makes dir hold the gtvcol files rows-warm opens. A store left
// by rows-cold of the same seed and the same build is used as it is;
// otherwise a child process writes one, so that fitting and encoding do not
// count towards this process's memory.
func ensureStore(w workload, seed int64, dir string) error {
	if ok, err := storeIsCurrent(w, seed, dir); ok || err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-build-store", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-work", filepath.Dir(dir))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the store for %s: %w", w.name, err)
	}
	return nil
}

// buildStore is the child side of ensureStore: one cold construction.
func buildStore(cfg config) error {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	if w.store == "" {
		return fmt.Errorf("workload %s keeps no store", w.name)
	}
	in, err := w.generate(cfg.seed)
	if err != nil {
		return err
	}
	dir := storeDir(cfg.work)
	if err := emptyDir(dir); err != nil {
		return err
	}
	g, err := core.NewFromAssignment(in.table, in.assignment, w.clients, w.withStorage(cfg.seed, dir))
	if err != nil {
		return err
	}
	if err := g.Close(); err != nil {
		return err
	}
	return writeMarker(w, cfg.seed, dir)
}
