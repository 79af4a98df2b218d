package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"escape/internal/core"
	"escape/internal/flowsim"
	"escape/internal/sg"
	"escape/internal/substrate"
)

// scale-churn: the E14-class trace — diurnal arrivals of chained
// services over an operator-scale ScaleSpec, with backbone link faults
// healed through core.AdmitHeal — played by the default serial
// substrate.PlayScenario on flowsim. core and flowsim do almost all the
// work; api, netem, click, netconf and openflow do none.
//
// Layer → metric predictions (this stage):
//   - substrate.arrive_us_*, substrate.depart_us_p50, core.map_us_*,
//     core.map_calls_per_arrival, core.commit_us_p50,
//     core.pathcache_hit_ratio, core.admit_conflicts and the flowsim.*
//     call times move events_per_cpu_s;
//   - core.heal_self_ms_p50 moves heal_cpu_us_per_service;
//   - go.allocs_per_event and go.gc_cpu_share move events_per_cpu_s and
//     scale_heap_peak_mb, this stage's own peak live heap.
//
// Planned changes: the dense-ID resource view and parallel-player
// removal must show here (events_per_cpu_s, heal_cpu_us_per_service,
// scale_heap_peak_mb) while intent-churn and chain-forward stay flat.
// heap_peak_mb, the whole run's peak, does not show them: intent-churn's
// retained stacks set it.

type scaleSize struct {
	regions, perRegion, sapsPerRegion, eesPerRegion int
	services                                        int
	// faults backbone link fail/repair pairs per trace: one heal
	// sample each.
	faults int
	// traces is how many distinct traces a run plays: the mean over
	// several traces damps the differences between seeds' inputs.
	traces int
}

const (
	scaleMatrixSeed = 14 // E14's seed
	scaleHorizon    = time.Hour
	scaleRate       = 1e6 // offered bits/s per flow and per SG link
)

// scaleInputs is everything a play needs that is generated once per run.
type scaleInputs struct {
	params    substrate.ScaleParams
	events    []substrate.ScenarioEvent
	arrivals  int
	faultRows int
}

func scaleInputsFor(sz scaleSize, chainLen int, seed int64) scaleInputs {
	params := substrate.ScaleParams{
		Regions: sz.regions, SwitchesPerRegion: sz.perRegion,
		SAPsPerRegion: sz.sapsPerRegion, EEsPerRegion: sz.eesPerRegion,
		BackboneBW: 1e12, RegionBW: 400e9, AccessBW: 100e9,
		// Compute never rejects, as in E14: the stage measures
		// admission, path search and healing, not bin-packing.
		EECPU: float64(sz.services*chainLen) * 0.125 / float64(sz.regions*sz.eesPerRegion) * 4,
		EEMem: sz.services * chainLen * 32 / (sz.regions * sz.eesPerRegion) * 4,
	}
	spec := substrate.ScaleSpec(params)
	wp := substrate.WorkloadParams{
		Process: substrate.Diurnal, Services: sz.services,
		Horizon: scaleHorizon, MeanLifetime: 4 * scaleHorizon,
		ChainLen: chainLen, Rate: scaleRate,
		SAPs: spec.SAPNames(), PairPool: 4096,
	}
	// The traffic matrix is part of the workload, not of the seed: the
	// Zipf law puts a quarter of all services on the top-ranked endpoint
	// pair, so a matrix drawn per seed would decide most of the heal and
	// path work by which few pairs came out on top. The seed draws the
	// arrival times, lifetimes and fault order, and the order in which
	// the matrix's endpoint pairs arrive.
	wp.Seed = scaleMatrixSeed
	matrix := substrate.GenerateWorkload(wp)
	wp.Seed = seed
	events := substrate.GenerateWorkload(wp)
	var pairs [][2]string
	for _, ev := range matrix {
		if ev.Kind == substrate.Arrive {
			pairs = append(pairs, [2]string{ev.SrcSAP, ev.DstSAP})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	next := 0
	for i := range events {
		if events[i].Kind == substrate.Arrive {
			events[i].SrcSAP, events[i].DstSAP = pairs[next][0], pairs[next][1]
			next++
		}
	}
	// The first Regions links of a ScaleSpec are the backbone ring: the
	// shared trunks whose loss re-steers many services at once.
	events = withRingFaults(events, spec.Links[:min(sz.regions, len(spec.Links))], sz.faults, seed)
	in := scaleInputs{params: params, events: events}
	for _, ev := range events {
		switch ev.Kind {
		case substrate.Arrive:
			in.arrivals++
		case substrate.FaultLink:
			in.faultRows++
		}
	}
	return in
}

// withRingFaults adds n backbone fail/repair pairs at evenly spaced
// times in the half hour after the arrival window, each repaired before
// the next fails, cycling through the ring links in a seeded order.
// Heal work grows with the services a fault hits; after the arrival
// window nearly every service is still up and departures thin them out
// slowly, so every fault heals a comparable load and the heal median
// does not hinge on where in the ramp-up the faults fall. One ring
// link down never partitions the ring, so nothing a fault hits is
// unhealable; substrate.WithLinkFaults draws overlapping windows
// instead, and two ring links down at once cut the ring in two.
func withRingFaults(events []substrate.ScenarioEvent, ring []substrate.LinkSpec, n int, seed int64) []substrate.ScenarioEvent {
	if n <= 0 || len(ring) == 0 {
		return events
	}
	order := rand.New(rand.NewSource(seed + 1)).Perm(len(ring))
	gap := scaleHorizon / 2 / time.Duration(n)
	seq := 2 * len(events)
	for i := 0; i < n; i++ {
		l := ring[order[i%len(ring)]]
		at := scaleHorizon + gap/4 + time.Duration(i)*gap
		events = append(events,
			substrate.ScenarioEvent{At: at, Kind: substrate.FaultLink, Seq: seq, A: l.A, B: l.B},
			substrate.ScenarioEvent{At: at + gap/2, Kind: substrate.RepairLink, Seq: seq + 1, A: l.A, B: l.B})
		seq += 2
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Seq < events[j].Seq
	})
	return events
}

// runScale plays sz.traces traces generated from the seed, each once on
// a fresh simulator and view, and returns the median set-up seconds.
// The stage is a fixed amount of work, not a time budget, so one seed
// always plays the same inputs. A traced run then replays the first
// trace untraced and traced, and requires the first play's decision
// digest of both.
func runScale(cfg runConfig, res *result) (float64, error) {
	sz := cfg.sizes.scale
	var (
		setups  []float64
		plain   scaleAgg
		digests []string
		first   scaleInputs
	)
	before := readGoCounters()
	for k := 0; k < sz.traces; k++ {
		in := scaleInputsFor(sz, cfg.workload.chainLen, cfg.seed*int64(sz.traces)+int64(k))
		if k == 0 {
			first = in
		}
		runtime.GC()
		setup, p, err := playOnce(in, nil, res.heap)
		if err != nil {
			return 0, err
		}
		setups = append(setups, setup)
		plain.add(p)
		res.account(in, p)
		digests = append(digests, decisionDigest(p.rep))
		fmt.Fprintf(cfg.log, "scale-churn: trace %d: %d switches, %d events (%d arrivals, %d faults), %.0f events/s, digest %s\n",
			k, sz.regions*sz.perRegion, len(in.events), in.arrivals, in.faultRows,
			float64(p.events)/p.wall.Seconds(), digests[k][:16])
	}
	counted := readGoCounters().since(before)
	plain.report(&res.endToEnd)
	res.digests = digests

	if cfg.traced {
		// Replay the first trace untraced and then traced, back to back
		// and both warm, for a like-for-like overhead figure.
		var untraced, traced scaleAgg
		for _, tr := range []*tracer{nil, res.spans} {
			agg := &untraced
			if tr != nil {
				agg = &traced
				res.spans.reserve(4 * len(first.events))
			}
			from := res.spans.len()
			runtime.GC()
			setup, p, err := playOnce(first, tr, res.heap)
			if err != nil {
				return 0, err
			}
			setups = append(setups, setup)
			agg.add(p)
			res.account(first, p)
			d := decisionDigest(p.rep)
			res.checkf(d == digests[0], "scale-churn: replay's decision digest %s differs from the first play's %s (traced %t)",
				d[:16], digests[0][:16], tr != nil)
			if tr != nil {
				traced.reportLayers(res, from)
			}
		}
		var untracedSet, tracedSet metricSet
		untraced.report(&untracedSet)
		traced.report(&tracedSet)
		res.compareTraced(untracedSet, tracedSet)
		res.perLayer.add("go.allocs_per_event", float64(counted.allocObjects)/float64(plain.events), "count", plain.events)
		res.perLayer.add("go.gc_cpu_share", counted.gcShare(), "ratio", plain.plays)
	}
	return median(setups), nil
}

// account adds one play's admissions to the run's operation counts and
// checks that every arrival was decided.
func (r *result) account(in scaleInputs, p *playResult) {
	r.attempted += in.arrivals
	r.failed += p.rep.Rejected
	r.checkf(p.rep.Admitted+p.rep.Rejected == in.arrivals,
		"scale-churn: admitted %d + rejected %d != arrivals %d", p.rep.Admitted, p.rep.Rejected, in.arrivals)
}

// playResult is one play of the trace.
type playResult struct {
	rep     *substrate.PlayReport
	wall    time.Duration
	cpu     time.Duration
	events  int
	heals   []time.Duration // one per FaultLink: until the next event starts
	healCPU time.Duration   // CPU time over all fault events
	hits    int             // services the faults re-steered
	pcs     core.PathCacheStats
	adm     core.AdmissionStats
	maps    int
}

// playOnce builds a fresh simulator and view (the timed set-up), then
// plays the trace through the probes. heap, if not nil, also samples
// the live heap after the last departure, where the view holds only
// what it keeps for good (path cache, link state); the sampler's ticks
// catch the peak while services are active.
func playOnce(in scaleInputs, tr *tracer, heap *heapSampler) (float64, *playResult, error) {
	c0 := cpuTime()
	spec := substrate.ScaleSpec(in.params)
	sim, err := flowsim.New(spec, flowsim.Options{})
	if err != nil {
		return 0, nil, err
	}
	if err := sim.Start(); err != nil {
		return 0, nil, err
	}
	defer sim.Stop()
	rv, err := sim.View()
	if err != nil {
		return 0, nil, err
	}
	setup := (cpuTime() - c0).Seconds()

	clock := tr
	if clock == nil {
		clock = newTracer() // stamps only; no spans are recorded on it
	}
	pr := &playProbe{events: in.events, clock: clock, tr: tr, cur: -1,
		stamps:    make([]time.Duration, 0, len(in.events)+1),
		cpuStamps: map[int]time.Duration{}, resteered: map[int]int{}}
	sub := wrapSubstrate(sim, pr)
	mapper := &probedMapper{Mapper: substrate.DefaultMapper(), p: pr}

	w0, c0 := time.Now(), cpuTime()
	rep, err := substrate.PlayScenario(sub, rv, mapper, in.events, substrate.PlayOptions{
		Traffic: true, HealOnFault: true, LinkBW: scaleRate,
	})
	if err != nil {
		return 0, nil, err
	}
	pr.finish()
	out := &playResult{rep: rep, wall: time.Since(w0), cpu: cpuTime() - c0, events: len(in.events),
		pcs: rv.PathCacheStats(), adm: rv.AdmissionStats(), maps: pr.mapCalls}
	heap.settle()
	if len(pr.stamps) != len(in.events)+1 {
		return 0, nil, fmt.Errorf("player made %d AdvanceTo calls for %d events", len(pr.stamps)-1, len(in.events))
	}
	for i, ev := range in.events {
		if ev.Kind == substrate.FaultLink {
			out.heals = append(out.heals, pr.stamps[i+1]-pr.stamps[i])
			out.healCPU += pr.cpuStamps[i+1] - pr.cpuStamps[i]
			out.hits += pr.resteered[i]
		}
	}
	return setup, out, nil
}

// scaleAgg accumulates plays of one kind (traced or not).
type scaleAgg struct {
	plays, events int
	wall, cpu     time.Duration
	heals         []float64
	healCPU       time.Duration
	healHits      int
	pcs           core.PathCacheStats
	adm           core.AdmissionStats
	maps, arr     int
}

func (a *scaleAgg) add(p *playResult) {
	a.plays++
	a.events += p.events
	a.wall += p.wall
	a.cpu += p.cpu
	for _, h := range p.heals {
		a.heals = append(a.heals, ms(h))
	}
	a.healCPU += p.healCPU
	a.healHits += p.hits
	a.pcs.Hits += p.pcs.Hits
	a.pcs.Misses += p.pcs.Misses
	a.adm.Conflicts += p.adm.Conflicts
	a.maps += p.maps
	a.arr += p.rep.Admitted + p.rep.Rejected
}

// report gives the trace events played per CPU-second of the process
// and the CPU time of the fault events per service they re-steered,
// over all plays together, so each trace weighs by its length. The
// player is serial, so the process's CPU time is the player's and the
// GC's, without the time the hypervisor gave other guests. The
// wall-clock events_per_s and heal_p50_ms, the median time per fault,
// are reported too but not declared: a fault's heal time grows with the
// services it hits, and that count is the seed's (it varied by a fifth
// across seeds at one build), while the cost per service held within a
// tenth.
func (a *scaleAgg) report(set *metricSet) {
	set.add("events_per_s", float64(a.events)/a.wall.Seconds(), "1/s", a.events)
	set.add("events_per_cpu_s", float64(a.events)/a.cpu.Seconds(), "1/cpu-s", a.events)
	set.add("heal_cpu_us_per_service", ratio(us(a.healCPU), float64(a.healHits)), "us", a.healHits)
	addQuantile(set, "heal_p50_ms", "ms", a.heals, 0.5)
}

// reportLayers reduces the traced plays' spans to the per-layer metrics.
func (a *scaleAgg) reportLayers(res *result, from int) {
	tr := res.spans
	pl := &res.perLayer
	addQuantile(pl, "substrate.arrive_us_p50", "us", durations(tr.durationsOf(from, spanArrive), us), 0.5)
	addQuantile(pl, "substrate.arrive_us_p99", "us", durations(tr.durationsOf(from, spanArrive), us), 0.99)
	addQuantile(pl, "substrate.depart_us_p50", "us", durations(tr.durationsOf(from, spanDepart), us), 0.5)
	mapDur := durations(tr.durationsOf(from, spanMap), us)
	addQuantile(pl, "core.map_us_p50", "us", mapDur, 0.5)
	addQuantile(pl, "core.map_us_p99", "us", mapDur, 0.99)
	pl.add("core.map_calls_per_arrival", ratio(float64(a.maps), float64(a.arr)), "ratio", a.arr)
	addQuantile(pl, "core.commit_us_p50", "us", durations(tr.selfTimes(from, spanArrive), us), 0.5)
	addQuantile(pl, "core.heal_self_ms_p50", "ms", durations(tr.selfTimes(from, spanFault), ms), 0.5)
	pl.add("core.pathcache_hit_ratio", ratio(float64(a.pcs.Hits), float64(a.pcs.Hits+a.pcs.Misses)), "ratio", int(a.pcs.Hits+a.pcs.Misses))
	pl.add("core.admit_conflicts", float64(a.adm.Conflicts), "count", a.plays)
	addQuantile(pl, "flowsim.advance_us_p50", "us", durations(tr.durationsOf(from, spanAdvance), us), 0.5)
	addQuantile(pl, "flowsim.start_flow_us_p50", "us", durations(tr.durationsOf(from, spanStartFlow), us), 0.5)
	addQuantile(pl, "flowsim.stop_flow_us_p50", "us", durations(tr.durationsOf(from, spanStopFlow), us), 0.5)
	var inSim, total time.Duration
	for _, s := range tr.view(from) {
		switch s.name {
		case spanAdvance, spanStartFlow, spanStopFlow, spanFailLink, spanHealLink:
			inSim += s.end - s.start
		case spanArrive, spanDepart, spanFault, spanRepair:
			total += s.end - s.start
		}
	}
	pl.add("flowsim.share", ratio(float64(inSim), float64(total)), "ratio", a.plays)
}

// Span names. An event span runs from the AdvanceTo call for event i to
// the one for event i+1 (the last one to PlayScenario's return); the
// calls into the mapper and the substrate are its children.
const (
	spanArrive    = "substrate.arrive"
	spanDepart    = "substrate.depart"
	spanFault     = "substrate.fault"
	spanRepair    = "substrate.repair"
	spanMap       = "core.map"
	spanAdvance   = "flowsim.advance"
	spanStartFlow = "flowsim.start_flow"
	spanStopFlow  = "flowsim.stop_flow"
	spanFailLink  = "flowsim.fail_link"
	spanHealLink  = "flowsim.heal_link"
)

var eventSpan = map[substrate.ScenarioKind]string{
	substrate.Arrive:     spanArrive,
	substrate.Depart:     spanDepart,
	substrate.FaultLink:  spanFault,
	substrate.RepairLink: spanRepair,
}

// playProbe is the state the substrate and mapper decorators share.
// The serial player calls AdvanceTo exactly once per trace event, at
// the top of the event, so the i-th call starts event i. Untraced, the
// probe only stamps those calls and counts the flows a fault re-steers
// (the heal metrics need the fault events'
// spans); traced, it also records every call as a child span.
type playProbe struct {
	events    []substrate.ScenarioEvent
	stamps    []time.Duration
	cpuStamps map[int]time.Duration // process CPU clock at the start of fault events and their successors
	resteered map[int]int           // StartFlow calls per fault event: the services it re-steered
	clock     *tracer
	tr        *tracer // nil when untraced
	cur       int     // open event span, -1 before the first event
	mapCalls  int
}

// child records a call that started at start and ended now under the
// open event span.
func (p *playProbe) child(name string, start time.Duration) {
	p.tr.record(name, int64(len(p.stamps)-1), p.cur, start, p.tr.now())
}

// finish stamps the end of the last event.
func (p *playProbe) finish() {
	now := p.clock.now()
	p.cpuStamp(len(p.stamps))
	p.stamps = append(p.stamps, now)
	if p.tr != nil && p.cur >= 0 {
		p.tr.close(p.cur)
	}
}

// probedSub decorates a substrate.Substrate with the play probe.
type probedSub struct {
	substrate.Substrate
	p *playProbe
}

// probedBatcher is probedSub over a substrate that also implements the
// optional substrate.FlowBatcher, which it forwards so the wrapped
// substrate offers the player exactly what the bare one does.
type probedBatcher struct {
	*probedSub
	fb substrate.FlowBatcher
}

func (b *probedBatcher) BeginBatch(workers int) { b.fb.BeginBatch(workers) }
func (b *probedBatcher) StopFlowDeferred(id string) (*substrate.DeferredStats, error) {
	return b.fb.StopFlowDeferred(id)
}
func (b *probedBatcher) FlushBatch() error { return b.fb.FlushBatch() }

func wrapSubstrate(sub substrate.Substrate, p *playProbe) substrate.Substrate {
	ps := &probedSub{Substrate: sub, p: p}
	if fb, ok := sub.(substrate.FlowBatcher); ok {
		return &probedBatcher{probedSub: ps, fb: fb}
	}
	return ps
}

// cpuStamp reads the process CPU clock at the start of event i when
// event i or event i-1 is a fault, so fault events can be costed in CPU
// time without a clock read on every event.
func (p *playProbe) cpuStamp(i int) {
	if (i < len(p.events) && p.events[i].Kind == substrate.FaultLink) ||
		(i > 0 && p.events[i-1].Kind == substrate.FaultLink) {
		p.cpuStamps[i] = cpuTime()
	}
}

func (s *probedSub) AdvanceTo(t time.Duration) {
	p := s.p
	now := p.clock.now()
	p.cpuStamp(len(p.stamps))
	p.stamps = append(p.stamps, now)
	if p.tr == nil {
		s.Substrate.AdvanceTo(t)
		return
	}
	i := len(p.stamps) - 1
	if p.cur >= 0 {
		p.tr.close(p.cur)
	}
	name := spanArrive
	if i < len(p.events) {
		name = eventSpan[p.events[i].Kind]
	}
	p.cur = p.tr.record(name, int64(i), -1, now, -1)
	start := p.tr.now()
	s.Substrate.AdvanceTo(t)
	p.child(spanAdvance, start)
}

func (s *probedSub) StartFlow(spec substrate.FlowSpec) error {
	if i := len(s.p.stamps) - 1; s.p.events[i].Kind == substrate.FaultLink {
		s.p.resteered[i]++
	}
	if s.p.tr == nil {
		return s.Substrate.StartFlow(spec)
	}
	start := s.p.tr.now()
	err := s.Substrate.StartFlow(spec)
	s.p.child(spanStartFlow, start)
	return err
}

func (s *probedSub) StopFlow(id string) (substrate.FlowStats, error) {
	if s.p.tr == nil {
		return s.Substrate.StopFlow(id)
	}
	start := s.p.tr.now()
	st, err := s.Substrate.StopFlow(id)
	s.p.child(spanStopFlow, start)
	return st, err
}

func (s *probedSub) FailLink(a, b string) error {
	if s.p.tr == nil {
		return s.Substrate.FailLink(a, b)
	}
	start := s.p.tr.now()
	err := s.Substrate.FailLink(a, b)
	s.p.child(spanFailLink, start)
	return err
}

func (s *probedSub) HealLink(a, b string) error {
	if s.p.tr == nil {
		return s.Substrate.HealLink(a, b)
	}
	start := s.p.tr.now()
	err := s.Substrate.HealLink(a, b)
	s.p.child(spanHealLink, start)
	return err
}

// probedMapper decorates a core.Mapper: it counts Map calls and, traced,
// records each as a child of the open event span.
type probedMapper struct {
	core.Mapper
	p *playProbe
}

func (m *probedMapper) Map(g *sg.Graph, rv *core.ResourceView) (*core.Mapping, error) {
	m.p.mapCalls++
	if m.p.tr == nil {
		return m.Mapper.Map(g, rv)
	}
	start := m.p.tr.now()
	mp, err := m.Mapper.Map(g, rv)
	m.p.child(spanMap, start)
	return mp, err
}

// decisionDigest hashes every placement and route decision of a report
// in sorted order, so two plays of one trace can be compared in one
// string.
func decisionDigest(rep *substrate.PlayReport) string {
	h := sha256.New()
	fmt.Fprintf(h, "admitted=%d rejected=%d departed=%d heal=%d rerouted=%d peak=%d\n",
		rep.Admitted, rep.Rejected, rep.Departed, rep.HealMoves, rep.Rerouted, rep.PeakActive)
	names := make([]string, 0, len(rep.Decisions))
	for n := range rep.Decisions {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := rep.Decisions[n]
		fmt.Fprintf(h, "%s|%v|%v|%v|%v\n", n, sortedPairs(d.Placements), sortedRoutes(d.Routes),
			sortedPairs(d.HealMoves), sortedRoutes(d.HealRoutes))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortedPairs(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, k+"="+v)
	}
	sort.Strings(out)
	return out
}

func sortedRoutes(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, fmt.Sprintf("%s=%v", k, v))
	}
	sort.Strings(out)
	return out
}
