package main

import (
	"runtime"
	"syscall"
	"time"
)

// Every time this benchmark reports is wall time: an operation that sleeps,
// syncs a file or waits for a peer is charged for it. The CPU time the
// process got meanwhile is only printed (cpu_share), as a hint of whether
// the machine took the virtual CPU away or the operation waited.
//
// The sandboxes the benchmark runs in share their cores with other tenants,
// and the machine's throughput moves in steps of up to 1.9x that last from
// a few seconds to an hour: far more than any bound a regression gate
// could use, and too slow for more samples in a run to average out (ten
// runs of one binary, raw wall time: quartile spreads of up to 0.34 of the
// median; see bench/README.md). So every timed operation is bracketed by a
// fixed piece of the benchmark's own arithmetic, and the gated times are
// reported at reference speed:
//
//	reported = wall time / (calibration around the operation / calibRefMS)
//
// The kernel is plain Go in this file and calls nothing in the repository,
// so a change to the program cannot speed it up; it is unrolled so that
// where the linker places it does not matter. calibRefMS only fixes the
// unit (the kernel's time on the quiet reference sandbox, so that reported
// and raw times agree there); two commits measured on one machine are
// divided by the same constant. The raw wall times and the index are
// printed beside the reported ones.

const (
	calibReps  = 300
	calibRefMS = 0.50
)

var (
	calibA, calibB [4096]float64
	calibSink      float64
)

func init() {
	for i := range calibA {
		calibA[i], calibB[i] = float64(i%7)+0.5, float64(i%5)+0.25
	}
}

// calibrate runs the kernel three times and returns the shortest: an
// interrupt lengthens one repetition, a slower machine lengthens all.
func calibrate() time.Duration {
	best := time.Duration(1 << 62)
	for try := 0; try < 3; try++ {
		start := time.Now()
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for rep := 0; rep < calibReps; rep++ {
			for i := 0; i+8 <= len(calibA); i += 8 {
				a0 += calibA[i] * calibB[i]
				a1 += calibA[i+1] * calibB[i+1]
				a2 += calibA[i+2] * calibB[i+2]
				a3 += calibA[i+3] * calibB[i+3]
				a4 += calibA[i+4] * calibB[i+4]
				a5 += calibA[i+5] * calibB[i+5]
				a6 += calibA[i+6] * calibB[i+6]
				a7 += calibA[i+7] * calibB[i+7]
			}
		}
		calibSink += a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// sample is one timed operation: its wall time, the CPU time the process was
// charged meanwhile, and the machine's speed index around it (1 = the
// reference, 1.3 = 30 % slower).
type sample struct {
	wall, cpu time.Duration
	speed     float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure times fn the way every timed operation is timed. It collects
// garbage first: with the default pacer the tensor pool makes the heap goal
// creep upward over a run, and the round time then depends on how far it
// got; starting every operation from a collected heap makes it repeat.
// Collections inside fn still happen and are paid for.
func measure(fn func() error) (sample, error) {
	runtime.GC()
	before := calibrate()
	cpu, start := cpuTime(), time.Now()
	err := fn()
	wall, cpu := time.Since(start), cpuTime()-cpu
	after := calibrate()
	return sample{wall: wall, cpu: cpu, speed: ms(before+after) / 2 / calibRefMS}, err
}

// wallMS returns the operations' raw wall times in ms.
func wallMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.wall)
	}
	return out
}

// refMS returns the operations' wall times at reference speed, in ms.
func refMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.wall) / s.speed
	}
	return out
}
