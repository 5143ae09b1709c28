package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usage is the process's CPU time and peak resident set so far.
type usage struct {
	cpu    time.Duration
	maxRSS int64 // bytes
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: ru.Maxrss << 10, // Linux reports KiB
	}
}

// rtSample is a snapshot of the Go runtime counters the task and
// runtime layers read.
type rtSample struct {
	allocBytes, allocObjects uint64
	gcCycles                 uint64
	gcCPU, totalCPU          float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, name := range rtNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return rtSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// sub is the counter delta b − a.
func (b rtSample) sub(a rtSample) rtSample {
	return rtSample{
		allocBytes:   b.allocBytes - a.allocBytes,
		allocObjects: b.allocObjects - a.allocObjects,
		gcCycles:     b.gcCycles - a.gcCycles,
		gcCPU:        b.gcCPU - a.gcCPU,
		totalCPU:     b.totalCPU - a.totalCPU,
	}
}
