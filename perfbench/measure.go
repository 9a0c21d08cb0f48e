package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// usage is one reading of the process counters a run is measured with.
type usage struct {
	wall     time.Time
	cpu      time.Duration // process user+sys CPU, every thread
	alloc    uint64        // cumulative heap allocation
	gcCPU    float64       // cumulative GC CPU seconds (runtime estimate)
	gcCycles uint64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUsage() usage {
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	return usage{
		wall:     time.Now(),
		cpu:      processCPU(),
		alloc:    s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		gcCycles: s[2].Value.Uint64(),
	}
}

// allocBytes reads only the cumulative allocation counter; cheap enough
// to call at every stage boundary.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// phase accumulates the counters of a timed phase. Correctness checks run
// between ops with the phase paused, so their CPU, wall time and
// allocation stay out of the figures.
type phase struct {
	running bool
	last    usage
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	gcCPU   float64
	gcCyc   uint64
}

func (p *phase) resume() {
	if p.running {
		return
	}
	p.running = true
	p.last = readUsage()
}

func (p *phase) pause() {
	if !p.running {
		return
	}
	now := readUsage()
	p.wall += now.wall.Sub(p.last.wall)
	p.cpu += now.cpu - p.last.cpu
	p.alloc += now.alloc - p.last.alloc
	p.gcCPU += now.gcCPU - p.last.gcCPU
	p.gcCyc += now.gcCycles - p.last.gcCycles
	p.running = false
}

// heapPeak samples the GC's heap goal — the heap size at which the next
// collection starts, so the most the heap grows to — and keeps the
// largest value seen. The goal only moves at the end of a GC cycle, so a
// coarse period catches every value a run of this size produces. The
// sampler starts held and counts only while released, so the checks and
// set-up repetitions run between ops stay out of the peak.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	held bool
	max  uint64
}

const heapPeakPeriod = 2 * time.Millisecond

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{}), held: true}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapPeakPeriod)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	metrics.Read(s)
	h.mu.Lock()
	if v := s[0].Value.Uint64(); !h.held && v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// release starts counting; hold takes a last sample and stops counting.
func (h *heapPeak) release() {
	h.mu.Lock()
	h.held = false
	h.mu.Unlock()
	h.sample()
}

func (h *heapPeak) hold() {
	h.sample()
	h.mu.Lock()
	h.held = true
	h.mu.Unlock()
}

// finish stops the sampler, waits for it, and returns the peak in MiB.
func (h *heapPeak) finish() float64 {
	h.hold()
	close(h.stop)
	<-h.done
	return float64(h.max) / (1 << 20)
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 11

// setupRuns repeats a workload's set-up setupReps times, each after a full
// collection. The repetitions are spread over the run — the first before
// the timed phase, the others between ops with the phase paused and after
// the last op — so their median does not hang on the host's speed during
// one short window.
type setupRuns struct {
	once  func() error
	tidy  func() // when set, undoes a repetition after it is timed
	times []float64
}

// due runs the repetitions that fall before op, of ops in all; op == ops
// is after the last one.
func (s *setupRuns) due(op, ops int) error {
	for len(s.times) < setupReps && len(s.times)*(ops+1)/setupReps <= op {
		settle()
		start := time.Now()
		if err := s.once(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s.times = append(s.times, time.Since(start).Seconds())
		if s.tidy != nil {
			s.tidy()
		}
	}
	return nil
}

// settle runs a full collection so every set-up and timed phase starts
// from the same heap: a parse takes several times longer when an earlier
// design's garbage is still waiting to be collected.
func settle() { runtime.GC() }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p50 is the nearest-rank median: the smallest sample with at least half
// of the samples at or below it. An op list mixes designs of very
// different sizes, and the interpolated median of an even count averages
// two neighbouring designs across the gap between them, so it jumps with
// small changes to either; the nearest rank stays on one design.
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)+1)/2-1]
}

// tail is the highest of the usual percentiles that still has at least
// ten samples above it; ok is false when even p90 has fewer.
func tail(xs []float64) (value, pct float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range []float64{99.9, 99, 95, 90} {
		k := int(math.Ceil(p/100*float64(n))) - 1
		if k >= 0 && n-1-k >= 10 {
			return s[k], p, true
		}
	}
	return 0, 0, false
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mib(b uint64) float64 { return float64(b) / (1 << 20) }
