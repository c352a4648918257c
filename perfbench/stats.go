package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// meter measures one timed region: wall, CPU and heap allocation.
type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func startMeter() meter { return meter{wall: time.Now(), cpu: cpuTime(), alloc: allocBytes()} }

// reading is what a meter measured.
type reading struct {
	wall, cpu float64 // seconds
	allocMB   float64
}

func (m meter) stop() reading {
	return reading{
		wall:    time.Since(m.wall).Seconds(),
		cpu:     (cpuTime() - m.cpu).Seconds(),
		allocMB: float64(allocBytes()-m.alloc) / (1 << 20),
	}
}
