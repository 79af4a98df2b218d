package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// minTailSamples is how many samples must lie beyond a percentile
// before it is reported: a p99 needs at least 1000 samples.
const minTailSamples = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailOK reports whether xs has at least minTailSamples beyond its q
// quantile.
func tailOK(n int, q float64) bool {
	return float64(n)*(1-q) >= minTailSamples
}

// addQuantile reports the q-quantile of xs under name. A timing with no
// samples, or a tail percentile with fewer than minTailSamples beyond
// it, is not reported; the set keeps the reason, and a run that must
// report the metric fails with it.
func addQuantile(set *metricSet, name, unit string, xs []float64, q float64) {
	switch {
	case len(xs) == 0:
		set.omit(name, "no samples")
	case q > 0.5 && !tailOK(len(xs), q):
		set.omit(name, fmt.Sprintf("%d samples, need %.0f for %d beyond the percentile",
			len(xs), math.Ceil(minTailSamples/(1-q)), minTailSamples))
	default:
		set.add(name, quantile(xs, q), unit, len(xs))
	}
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// goCounters snapshots the runtime counters the go.* per-layer metrics
// are differences of.
type goCounters struct {
	allocObjects, allocBytes uint64
	gcCPU, userCPU           float64
}

var goCounterNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
}

func readGoCounters() goCounters {
	s := make([]metrics.Sample, len(goCounterNames))
	for i, n := range goCounterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goCounters{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		userCPU:      s[3].Value.Float64(),
	}
}

// since returns the counter deltas from an earlier snapshot.
func (c goCounters) since(old goCounters) goCounters {
	return goCounters{
		allocObjects: c.allocObjects - old.allocObjects,
		allocBytes:   c.allocBytes - old.allocBytes,
		gcCPU:        c.gcCPU - old.gcCPU,
		userCPU:      c.userCPU - old.userCPU,
	}
}

// gcShare is the GC's share of the CPU time the program spent.
func (c goCounters) gcShare() float64 {
	if c.gcCPU+c.userCPU <= 0 {
		return 0
	}
	return c.gcCPU / (c.gcCPU + c.userCPU)
}

// heapSampler tracks the peak live heap (as marked by the latest GC)
// over a run and over the current stage. Live heap rather than heap in
// use: in-use heap swings with GC pacing, live heap follows what the
// program retains.
type heapSampler struct {
	done      chan struct{}
	wg        sync.WaitGroup
	peak      atomic.Uint64 // over the run
	stagePeak atomic.Uint64 // since the last startStage
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	raise(&h.peak, v)
	raise(&h.stagePeak, v)
}

func raise(peak *atomic.Uint64, v uint64) {
	for old := peak.Load(); v > old && !peak.CompareAndSwap(old, v); old = peak.Load() {
	}
}

// startStage collects the last stage's garbage and starts the stage
// peak afresh, so it holds only what the next stage keeps live.
func (h *heapSampler) startStage() {
	runtime.GC()
	h.stagePeak.Store(0)
	h.sample()
}

// stop ends sampling after a last sample.
func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
	h.sample()
}

// settle collects garbage and samples, so the peak includes the live
// heap at this point exactly rather than as the last GC found it.
// Stages call it outside timed work, where they want the live heap
// sampled exactly. A nil sampler does nothing.
func (h *heapSampler) settle() {
	if h == nil {
		return
	}
	runtime.GC()
	h.sample()
}

func (h *heapSampler) peakMB() float64      { return float64(h.peak.Load()) / (1 << 20) }
func (h *heapSampler) stagePeakMB() float64 { return float64(h.stagePeak.Load()) / (1 << 20) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// checkf records a violation when ok is false.
func (r *result) checkf(ok bool, format string, args ...any) {
	if !ok {
		r.violate(format, args...)
	}
}

// durations converts a slice of durations with unit conversion fn.
func durations(ds []time.Duration, fn func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = fn(d)
	}
	return out
}
