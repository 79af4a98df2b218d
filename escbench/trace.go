package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. trace groups the spans of one request: a trace
// event index, an intent cycle or a frame sequence number.
type span struct {
	name       string
	trace      int64
	parent     int // index of the parent span, -1 for a root
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends. Times are offsets
// from the tracer's creation, so every span of a run shares one clock.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.base) }

// record stores a span and returns its index; an end of -1 leaves it
// open until close.
func (t *tracer) record(name string, trace int64, parent int, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, trace, parent, start, end})
	return len(t.spans) - 1
}

// close ends span i now and returns its end.
func (t *tracer) close(i int) time.Duration {
	end := t.now()
	t.mu.Lock()
	t.spans[i].end = end
	t.mu.Unlock()
	return end
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// reserve grows the span store ahead of a traced phase, so appending
// does not allocate inside the measured calls.
func (t *tracer) reserve(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cap(t.spans)-len(t.spans) < n {
		grown := make([]span, len(t.spans), len(t.spans)+n)
		copy(grown, t.spans)
		t.spans = grown
	}
}

// view returns the spans recorded from index from on. The caller must
// not be recording concurrently.
func (t *tracer) view(from int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[from:]
}

// selfTimes returns, for every span at index ≥ from named name, its
// duration minus the part of its interval covered by its children.
func (t *tracer) selfTimes(from int, name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i := from; i < len(t.spans); i++ {
		if p := t.spans[i].parent; p >= from {
			children[p] = append(children[p], i)
		}
	}
	var out []time.Duration
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		if s.name != name || s.end < 0 {
			continue
		}
		out = append(out, s.end-s.start-t.covered(s, children[i]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func (t *tracer) covered(parent span, kids []int) time.Duration {
	ivs := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		c := t.spans[k]
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			ivs = append(ivs, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		if open && iv[0] <= curHi {
			curHi = max(curHi, iv[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv[0], iv[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// durationsOf returns the durations of the spans at index ≥ from named
// name.
func (t *tracer) durationsOf(from int, name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans[from:] {
		if s.name == name && s.end >= 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// writeCSV writes every span as index,name,trace,parent,start_ns,end_ns.
func (t *tracer) writeCSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,name,trace,parent,start_ns,end_ns")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, s.name, s.trace, s.parent, int64(s.start), int64(s.end))
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
