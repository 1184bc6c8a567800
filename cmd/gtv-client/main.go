// Command gtv-client runs one GTV client as a standalone process, serving
// its bottom models over TCP (the gtvwire frame protocol) to a gtv-server.
//
// Each client owns a vertical slice of the dataset. For this demo the
// slice is carved from a deterministic synthetic dataset (every party
// generates the same rows from the shared seed); in a real deployment each
// party would load its own columns from storage and align rows via private
// set intersection beforehand.
//
// Usage:
//
//	gtv-client -listen :7001 -dataset adult -rows 800 -client 0 -num-clients 2 -secret 42
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/vfl"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gtv-client:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gtv-client", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", ":7001", "address to serve on")
		dataset    = fs.String("dataset", "adult", "dataset: loan|adult|covtype|intrusion|credit")
		rows       = fs.Int("rows", 800, "dataset rows")
		clientIdx  = fs.Int("client", 0, "this client's index (0-based)")
		numClients = fs.Int("num-clients", 2, "total clients in the federation")
		secret     = fs.Int64("secret", 0x67747673, "shared shuffle secret (must match every client; never give it to the server)")
		seed       = fs.Int64("seed", 1, "dataset seed (must match every client)")
		dataDir    = fs.String("data-dir", "", "keep this client's encoded matrix in a gtvcol columnar file under this directory (flat-memory training; a rerun with the same seed, GMM config, row count and schema reuses it and trains on the stored rows)")
		blockCache = fs.Int("block-cache", 0, "block cache budget in MiB (0 = 256): bounds the bytes held, about as many bytes of the gtvcol file; only with -data-dir")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clientIdx < 0 || *clientIdx >= *numClients {
		return fmt.Errorf("client index %d out of range [0,%d)", *clientIdx, *numClients)
	}

	d, err := datasets.Generate(*dataset, datasets.Config{Rows: *rows, Seed: *seed})
	if err != nil {
		return err
	}
	assignment, err := core.EvenAssignment(d.Table.Cols(), *numClients)
	if err != nil {
		return err
	}
	// The party's own columns, and no other party's, are copied out of the
	// generated table only if its -data-dir store misses.
	local, err := d.Table.DeferredPart(assignment, *numClients, *clientIdx)
	if err != nil {
		return err
	}

	opts := core.DefaultOptions()
	opts.Seed = *seed
	opts.DataDir = *dataDir
	opts.BlockCacheMB = *blockCache
	client, err := core.NewClient(local, *clientIdx, vfl.NewShuffleCoordinator(*secret), opts)
	if err != nil {
		return err
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *listen, err)
	}
	fmt.Printf("gtv-client %d/%d serving %d columns of %s on %s\n",
		*clientIdx, *numClients, len(local.Schema()), *dataset, lis.Addr())
	return vfl.ServeClientWire(lis, client)
}
