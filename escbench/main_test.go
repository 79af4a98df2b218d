package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"escape/internal/flowsim"
	"escape/internal/substrate"
)

// tinySizes shrink every stage so a whole run takes a few seconds.
var tinySizes = sizes{
	scale: scaleSize{
		regions: 4, perRegion: 16, sapsPerRegion: 3, eesPerRegion: 2,
		services: 150, faults: 4, traces: 2,
	},
	intent:  intentSize{cyclesPerClient: 10, minRounds: 2},
	forward: forwardSize{setups: 2, rounds: 2, warmup: 20 * time.Millisecond},
}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyRun(t *testing.T, wl string, traced bool) *result {
	t.Helper()
	res, err := run(runConfig{
		workload: workloads[wl], seed: 7, budget: 3 * time.Second, traced: traced,
		sizes: tinySizes, workDir: t.TempDir(), log: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkEmitted asserts that every metric the spec names is reported
// with the spec's unit. A tail percentile may instead be omitted for
// too few samples, which a tiny run cannot reach; the reason must say
// so.
func checkEmitted(t *testing.T, set metricSet, want []specMetric) {
	t.Helper()
	for _, w := range want {
		m, ok := set.m[w.Name]
		if !ok {
			why := set.omitted[w.Name]
			if tailMetric(w.Name) && why != "" {
				t.Logf("%s omitted in a tiny run: %s", w.Name, why)
				continue
			}
			t.Errorf("metric %s not emitted (%s)", w.Name, why)
			continue
		}
		if m.unit != w.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.unit, w.Unit)
		}
	}
}

func tailMetric(name string) bool {
	return strings.Contains(name, "_p99")
}

func TestTinyRunEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := tinyRun(t, w.Name, false)
			for _, v := range res.violations {
				t.Error(v)
			}
			checkEmitted(t, res.endToEnd, spec.EndToEnd)
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
			}
		})
	}
}

func TestTinyTracedRunEmitsEveryLayerMetric(t *testing.T) {
	spec := loadSpec(t)
	res := tinyRun(t, spec.Workloads[0].Name, true)
	for _, v := range res.violations {
		t.Error(v)
	}
	checkEmitted(t, res.perLayer, spec.PerLayer)
	if len(res.overhead) == 0 {
		t.Error("traced run reported no tracing overhead")
	}
}

// TestWrappedPlayMatchesBare plays one trace on a bare simulator and
// through the traced decorators, and requires equal reports.
func TestWrappedPlayMatchesBare(t *testing.T) {
	in := scaleInputsFor(tinySizes.scale, 2, 3)
	opts := substrate.PlayOptions{Traffic: true, HealOnFault: true, LinkBW: scaleRate}

	bare := func() *substrate.PlayReport {
		sim, err := flowsim.New(substrate.ScaleSpec(in.params), flowsim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Start(); err != nil {
			t.Fatal(err)
		}
		defer sim.Stop()
		rv, err := sim.View()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := substrate.PlayScenario(sim, rv, substrate.DefaultMapper(), in.events, opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}()
	_, wrapped, err := playOnce(in, newTracer(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Admitted == 0 || bare.HealMoves+bare.Rerouted == 0 {
		t.Fatalf("trace too small to compare: %+v", bare)
	}
	if !reflect.DeepEqual(bare, wrapped.rep) {
		t.Fatal("traced play's report differs from the bare play's")
	}
	if decisionDigest(bare) != decisionDigest(wrapped.rep) {
		t.Fatal("digests differ")
	}
}
