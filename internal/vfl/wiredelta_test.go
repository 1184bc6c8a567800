package vfl

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// deltaRoundTrip encodes cur against base and reassembles it.
func deltaRoundTrip(t *testing.T, base, cur []byte) (opsLen int) {
	t.Helper()
	enc := newWireEnc()
	appendSnapDeltaOps(enc, base, cur)
	opsLen = len(enc.Buf)
	dec := newWireDec(enc.Buf)
	got := decodeSnapDelta(dec, base, len(cur))
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode ops: %v", err)
	}
	enc.release()
	if !bytes.Equal(got, cur) {
		t.Fatalf("delta round trip changed the blob (%d bytes -> %d)", len(cur), len(got))
	}
	return opsLen
}

func TestSnapDeltaOpsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := make([]byte, 4096)
	for i := range base {
		base[i] = byte(rng.Intn(256))
	}

	t.Run("identical", func(t *testing.T) {
		ops := deltaRoundTrip(t, base, append([]byte(nil), base...))
		// One equal run covering everything: a handful of varint bytes.
		if ops > 8 {
			t.Fatalf("identical blobs need %d op bytes", ops)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if ops := deltaRoundTrip(t, nil, nil); ops != 0 {
			t.Fatalf("empty blobs need %d op bytes", ops)
		}
	})
	t.Run("sparse-changes", func(t *testing.T) {
		cur := append([]byte(nil), base...)
		for _, i := range []int{0, 100, 101, 102, 2000, 4095} {
			cur[i] ^= 0x55
		}
		ops := deltaRoundTrip(t, base, cur)
		if ops >= len(cur)/4 {
			t.Fatalf("6 changed bytes cost %d op bytes (blob %d)", ops, len(cur))
		}
	})
	t.Run("all-different", func(t *testing.T) {
		cur := make([]byte, len(base))
		for i := range cur {
			cur[i] = base[i] ^ 0xFF
		}
		deltaRoundTrip(t, base, cur)
	})
	t.Run("alternating-short-runs", func(t *testing.T) {
		// Equal runs shorter than wireDeltaMinRun must fold into literals,
		// not explode into op pairs.
		cur := append([]byte(nil), base...)
		for i := 0; i < len(cur); i += 3 {
			cur[i] ^= 1
		}
		deltaRoundTrip(t, base, cur)
	})
	t.Run("random-flips", func(t *testing.T) {
		cur := append([]byte(nil), base...)
		for i := 0; i < 200; i++ {
			cur[rng.Intn(len(cur))] ^= byte(1 + rng.Intn(255))
		}
		deltaRoundTrip(t, base, cur)
	})
}

// decodeSnapResponse pulls apart an encodeWireSnapshot body.
func decodeSnapResponse(t *testing.T, payload, base []byte) (form byte, epoch uint64, blob []byte) {
	t.Helper()
	dec := newWireDec(payload)
	form = dec.U8()
	epoch = dec.Uvarint()
	switch form {
	case wireSnapFull:
		blob = dec.bytes()
	case wireSnapDelta:
		crc := dec.U32()
		newLen := int(dec.Uvarint())
		if newLen != len(base) {
			t.Fatalf("delta newLen %d against %d-byte base", newLen, len(base))
		}
		blob = decodeSnapDelta(dec, base, newLen)
		if dec.Err() == nil && snapDeltaCRC(blob) != crc {
			t.Fatalf("delta crc mismatch")
		}
	default:
		t.Fatalf("unknown snapshot form %d", form)
	}
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode snapshot response: %v", err)
	}
	return form, epoch, blob
}

// TestEncodeWireSnapshotForms pins the responder's full-vs-delta choice:
// no base or a mismatched epoch serves full, a matching epoch with equal
// lengths serves a (smaller) delta, and a length change forces full again.
func TestEncodeWireSnapshotForms(t *testing.T) {
	snaps := &wireSnapCache{}
	blob1 := bytes.Repeat([]byte{7}, 2048)

	enc := newWireEnc()
	encodeWireSnapshot(enc, snaps, blob1, 0)
	form, epoch1, got := decodeSnapResponse(t, enc.Buf, nil)
	enc.release()
	if form != wireSnapFull || !bytes.Equal(got, blob1) {
		t.Fatalf("first fetch: form %d, blob match %v", form, bytes.Equal(got, blob1))
	}

	// Same length, few changed bytes, correct epoch: delta, and smaller.
	blob2 := append([]byte(nil), blob1...)
	blob2[100], blob2[1500] = 1, 2
	enc = newWireEnc()
	encodeWireSnapshot(enc, snaps, blob2, epoch1)
	if len(enc.Buf) >= len(blob2) {
		t.Fatalf("delta response %d bytes not smaller than the %d-byte blob", len(enc.Buf), len(blob2))
	}
	form, epoch2, got := decodeSnapResponse(t, enc.Buf, blob1)
	enc.release()
	if form != wireSnapDelta || !bytes.Equal(got, blob2) {
		t.Fatalf("second fetch: form %d, blob match %v", form, bytes.Equal(got, blob2))
	}
	if epoch2 == epoch1 {
		t.Fatal("epoch did not advance")
	}

	// Stale epoch (peer never saw blob2): must fall back to full.
	enc = newWireEnc()
	encodeWireSnapshot(enc, snaps, blob2, epoch1)
	form, epoch3, got := decodeSnapResponse(t, enc.Buf, nil)
	enc.release()
	if form != wireSnapFull || !bytes.Equal(got, blob2) {
		t.Fatalf("stale-epoch fetch: form %d", form)
	}

	// Length change (structural change in the image): full.
	blob3 := append(append([]byte(nil), blob2...), 9, 9, 9)
	enc = newWireEnc()
	encodeWireSnapshot(enc, snaps, blob3, epoch3)
	form, _, got = decodeSnapResponse(t, enc.Buf, nil)
	enc.release()
	if form != wireSnapFull || !bytes.Equal(got, blob3) {
		t.Fatalf("length-change fetch: form %d", form)
	}
}

// TestWireSnapshotDeltaEndToEnd drives the delta path over real TCP: the
// first fetch ships the full blob, a repeat fetch ships a tiny delta, and a
// severed connection (client process restart) falls back to a full
// transfer — every fetch reassembling exactly the in-process blob.
func TestWireSnapshotDeltaEndToEnd(t *testing.T) {
	srv, locals := newThreeClientSystem(t, 0, func(c *Config) { c.Rounds = 1 })
	trainRounds(t, srv, "origin")

	addr, killConns := serveWireKillable(t, locals[0])
	proxy, err := DialWireClientPolicy("tcp", addr, CallPolicy{
		Timeout: 5 * time.Second, MaxAttempts: 3, Backoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() {
		//lint:ignore errdrop test teardown, nothing left to lose
		_ = proxy.Close()
	})
	proxy.SetDelta(true)

	direct, err := locals[0].Snapshot()
	if err != nil {
		t.Fatalf("Snapshot(direct): %v", err)
	}
	snapCost := func() int64 { return proxy.WireBytesByMethod()[wireMethodSnapshot] }

	blob1, err := proxy.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot(first): %v", err)
	}
	cost1 := snapCost()
	if !bytes.Equal(blob1, direct) {
		t.Fatal("first wire fetch differs from the in-process blob")
	}
	if cost1 < int64(len(direct)) {
		t.Fatalf("first fetch cost %d bytes for a %d-byte blob — it cannot have been full", cost1, len(direct))
	}

	// Client state unchanged, base cached: the refetch must ride a delta.
	blob2, err := proxy.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot(second): %v", err)
	}
	cost2 := snapCost() - cost1
	if !bytes.Equal(blob2, direct) {
		t.Fatal("delta fetch reassembled a different blob")
	}
	if 10*cost2 >= cost1 {
		t.Fatalf("unchanged-blob refetch cost %d bytes vs %d full — delta not engaged", cost2, cost1)
	}

	// Sever every connection: the responder's per-connection base cache
	// dies with it, so the redialed fetch must resync with a full transfer
	// and still agree byte for byte.
	killConns()
	blob3, err := proxy.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot(after redial): %v", err)
	}
	cost3 := snapCost() - cost1 - cost2
	if !bytes.Equal(blob3, direct) {
		t.Fatal("post-redial fetch differs from the in-process blob")
	}
	if cost3 < int64(len(direct)) {
		t.Fatalf("post-redial fetch cost %d bytes — expected a full-transfer resync", cost3)
	}
}
