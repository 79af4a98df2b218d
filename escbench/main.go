// Command escbench is the repository benchmark. Every run plays three
// stages in sequence, each against the real code of one part of ESCAPE:
//
//   - scale-churn: an operator-scale admission/departure/fault trace
//     played by the serial substrate.PlayScenario over flowsim. core
//     (KSP mapping, copy-on-write admission, path cache, AdmitHeal) and
//     flowsim do the work; api, netem, click, netconf and openflow do
//     none.
//   - intent-churn: an in-process escaped stack (api.Server on loopback
//     HTTP, fsync'd WAL, Reconciler, CoreBackend over a full
//     core.Environment) driven by a closed loop of nproc tenant clients
//     that deploy, read and delete intents. The deploy path runs through
//     api, vnfagent/netconf, the click router build and steering/pox/
//     openflow; core mapping is tiny here.
//   - chain-forward: frames pushed h1→s1→ee→…→s2→h2 through one deployed
//     chain of monitor VNFs on the default Click driver. netem, ofswitch,
//     click and pkt do all the work here and nowhere else.
//
// Every run plays all three stages, so every end-to-end metric is
// measured on every workload. Each metric belongs to one stage, so a
// change confined to one layer should move its stage's metrics and
// leave the other two stages' flat: the stages that bypass a mechanism
// are its control. The workloads vary the one input property every
// stage's cost depends on, the service chain length (see workloads).
//
// Usage, from the repository root (run.sh builds into .bench_build and
// runs the binary):
//
//	bash escbench/run.sh --workload chain2 --seed 1 --seconds 30 --trace 0
//
// --seconds is divided between intent-churn and chain-forward;
// scale-churn plays a fixed set of traces. The report lines give every
// figure with its sample count. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics,
// whose metrics are those BENCHMARK.json declares: with --trace 0 the
// end-to-end ones, measured untraced; with --trace 1 the per-layer ones.
// A traced run spends half of each stage untraced and half traced, and
// reports the tracing overhead as traced minus untraced. Any failed
// output check makes the run exit 1.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one input mix. Only the chain length differs between
// workloads: mapping work, NETCONF realize calls, steering rules and
// Click hops per packet all scale with it, so the two workloads
// separate per-chain costs from fixed per-request costs in every stage.
type workload struct {
	chainLen int
}

var workloads = map[string]workload{
	// Two-NF chains: the shape of the E14 trace, of the escaped demo
	// intents and of the paper's compressor/decompressor chain.
	"chain2": {chainLen: 2},
	// Four-NF chains: twice the per-chain work in every layer.
	"chain4": {chainLen: 4},
}

// sizes fixes how much work each stage does apart from its time budget.
// fullSizes is what the benchmark measures; tests use tinySizes.
type sizes struct {
	scale   scaleSize
	intent  intentSize
	forward forwardSize
}

var fullSizes = sizes{
	scale: scaleSize{
		regions: 16, perRegion: 128, sapsPerRegion: 4, eesPerRegion: 3,
		services: 2500, faults: 4, traces: 6,
	},
	intent:  intentSize{cyclesPerClient: 150, minRounds: 3},
	forward: forwardSize{setups: 9, rounds: 9, warmup: 50 * time.Millisecond},
}

// intentShare is intent-churn's share of --seconds; chain-forward gets
// the rest. scale-churn is not timed by --seconds: it plays a fixed
// number of traces.
const intentShare = 0.5

func main() {
	wl := flag.String("workload", "chain2", "workload name (chain2, chain4)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured seconds of intent-churn and chain-forward")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "escbench:", err)
		os.Exit(1)
	}
	w, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "escbench: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "escbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	work := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "escbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{
		workload: w,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		sizes:    fullSizes,
		workDir:  work,
		log:      os.Stdout,
	}
	res, err := run(cfg)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "escbench:", err)
		os.Exit(1)
	}
	if err := checkDigests(*wl, *seed, res); err != nil {
		fmt.Fprintln(os.Stderr, "escbench: decision digests:", err)
		os.Exit(1)
	}
	if !cfg.traced {
		res.endToEnd.require(res, spec.EndToEnd)
	} else {
		res.perLayer.require(res, spec.PerLayer)
		path := filepath.Join(".bench_build", "trace-"+*wl+".csv")
		if err := res.spans.writeCSV(path); err != nil {
			fmt.Fprintln(os.Stderr, "escbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %d written to %s\n", res.spans.len(), path)
	}
	declared := spec.EndToEnd
	if cfg.traced {
		declared = spec.PerLayer
	}
	if err := res.print(os.Stdout, cfg.traced, declared); err != nil {
		fmt.Fprintln(os.Stderr, "escbench:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// checkDigests compares scale-churn's decision digests with those an
// earlier run of the same binary, workload and seed recorded, traced or
// not, and records them when there is none: one seed must decide the
// same on every run.
func checkDigests(wl string, seed int64, res *result) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(".bench_build", "digests", fmt.Sprintf("%x-%s-%d.txt", sum[:8], wl, seed))
	got := strings.Join(res.digests, "\n") + "\n"
	want, err := os.ReadFile(path)
	switch {
	case err == nil:
		res.checkf(string(want) == got, "scale-churn: decision digests differ from an earlier run of seed %d (%s)", seed, path)
		return nil
	case errors.Is(err, fs.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(got), 0o644)
	default:
		return err
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program reports
// against: a run must emit every metric of its kind, with its unit.
type benchmarkSpec struct {
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

type runConfig struct {
	workload workload
	seed     int64
	budget   time.Duration
	traced   bool
	sizes    sizes
	workDir  string
	log      io.Writer
}

// result is what one run reports.
type result struct {
	attempted, failed int
	violations        []string
	endToEnd          metricSet // untraced
	perLayer          metricSet
	overhead          []string // traced run: traced minus untraced, per metric
	digests           []string // scale-churn: decision digest per trace
	heap              *heapSampler
	spans             *tracer
}

func (r *result) correct() bool { return len(r.violations) == 0 }

func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// run plays the three stages and collects their metrics. setup_s sums
// the stages' median set-up costs in CPU seconds: a set-up lasts tens of
// milliseconds, and its wall time moved by half between runs on a
// shared host. heap_peak_mb is the run's peak live heap, and each stage
// also reports its own.
func run(cfg runConfig) (*result, error) {
	heap := startHeapSampler()
	res := &result{spans: newTracer(), heap: heap}

	intentBudget := time.Duration(float64(cfg.budget) * intentShare)
	stages := []struct {
		name string
		heap string // the stage's own peak live heap
		run  func() (float64, error)
	}{
		{"scale-churn", "scale_heap_peak_mb", func() (float64, error) { return runScale(cfg, res) }},
		{"intent-churn", "intent_heap_peak_mb", func() (float64, error) { return runIntent(cfg, intentBudget, res) }},
		{"chain-forward", "fwd_heap_peak_mb", func() (float64, error) { return runForward(cfg, cfg.budget-intentBudget, res) }},
	}
	var setup float64
	for _, st := range stages {
		// Start each stage from a collected heap, so garbage the last
		// one left does not fall due inside this one's measurement.
		heap.startStage()
		s, err := st.run()
		if err != nil {
			heap.stop()
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
		setup += s
		res.endToEnd.add(st.heap, heap.stagePeakMB(), "MB", 1)
		fmt.Fprintf(cfg.log, "%s: set-up %.4f CPU-s (median), peak live heap %.1f MB in the stage, %.1f MB so far\n",
			st.name, s, heap.stagePeakMB(), heap.peakMB())
	}

	res.endToEnd.add("setup_s", setup, "s", 3)
	heap.stop()
	res.endToEnd.add("heap_peak_mb", heap.peakMB(), "MB", 1)
	return res, nil
}

// compareTraced records the tracing overhead: for every metric both
// sets hold, the traced value minus the untraced one.
func (r *result) compareTraced(untraced, traced metricSet) {
	for _, t := range traced.sorted() {
		u, ok := untraced.m[t.name]
		if !ok {
			continue
		}
		r.overhead = append(r.overhead, fmt.Sprintf("%-20s untraced %12.4f  traced %12.4f  diff %+12.4f %s (%+.1f%%)",
			t.name, u.value, t.value, t.value-u.value, t.unit, 100*ratio(t.value-u.value, u.value)))
	}
}

// print writes the human-readable report of every metric measured,
// then the JSON result line with the declared ones.
func (r *result) print(w io.Writer, traced bool, declared []specMetric) error {
	for _, v := range r.violations {
		fmt.Fprintln(w, "CHECK FAILED:", v)
	}
	show := r.endToEnd
	if traced {
		fmt.Fprintln(w, "tracing overhead (traced minus untraced):")
		for _, l := range r.overhead {
			fmt.Fprintln(w, "  "+l)
		}
		show = r.perLayer
	}
	for _, m := range show.sorted() {
		fmt.Fprintf(w, "%-32s %14.4f %-6s n=%d", m.name, m.value, m.unit, m.samples)
		if len(m.rounds) > 0 {
			fmt.Fprintf(w, " median of rounds %.4g", m.rounds)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "operations: attempted=%d failed=%d\n", r.attempted, r.failed)

	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]jm{}}
	for _, d := range declared {
		if m, ok := show.m[d.Name]; ok {
			out.Metrics[m.name] = jm{m.value, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// metric is one reported figure with the number of samples behind it.
// A median over rounds also gives the number of rounds.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	rounds  []float64 // per-round figures behind a median over rounds
}

// metricSet holds reported metrics, and for metrics that could not be
// reported, why.
type metricSet struct {
	m       map[string]metric
	omitted map[string]string
}

func (s *metricSet) add(name string, value float64, unit string, samples int) {
	if s.m == nil {
		s.m = map[string]metric{}
	}
	s.m[name] = metric{name: name, value: value, unit: unit, samples: samples}
}

// addRounds reports the median of per-round figures; samples counts the
// measurements behind all rounds together.
func (s *metricSet) addRounds(name string, perRound []float64, unit string, samples int) {
	if len(perRound) == 0 {
		s.omit(name, "no rounds")
		return
	}
	s.add(name, median(append([]float64(nil), perRound...)), unit, samples)
	m := s.m[name]
	m.rounds = perRound
	s.m[name] = m
}

func (s *metricSet) omit(name, why string) {
	if s.omitted == nil {
		s.omitted = map[string]string{}
	}
	s.omitted[name] = why
}

func (s *metricSet) sorted() []metric {
	out := make([]metric, 0, len(s.m))
	for _, m := range s.m {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// require records a violation for every metric the set lacks or
// reports in another unit.
func (s *metricSet) require(res *result, want []specMetric) {
	for _, w := range want {
		m, ok := s.m[w.Name]
		switch {
		case !ok && s.omitted[w.Name] != "":
			res.violate("metric %s missing: %s", w.Name, s.omitted[w.Name])
		case !ok:
			res.violate("metric %s missing: not measured", w.Name)
		case m.unit != w.Unit:
			res.violate("metric %s in %s, BENCHMARK.json says %s", w.Name, m.unit, w.Unit)
		}
	}
}

// clients is the closed-loop concurrency of intent-churn: one client
// per CPU, so load never comes from more clients than cores.
func clients() int { return runtime.NumCPU() }
