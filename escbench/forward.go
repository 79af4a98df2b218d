package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"escape/internal/click"
	"escape/internal/core"
	"escape/internal/netem"
	"escape/internal/pkt"
	"escape/internal/sg"
)

// chain-forward: one deployed chain of monitor VNFs, h1→s1→ee→…→s2→h2,
// on the default Click driver. Three closed-loop phases, each after an
// untimed warm-up: 64 B frames with 256 in flight, 1514 B frames (1472 B
// UDP payloads) with 256 in flight, and 64 B frames one at a time for
// latency. netem, ofswitch, click and pkt do all the work here and
// nowhere else; the two frame sizes separate per-packet from per-byte
// cost. Forwarding rates are declared per CPU-second of the whole
// process (fwd_kpkt_per_cpu_s_*): on a shared host the wall-clock rates
// (fwd_kpps_*, in the report lines) move with the time the hypervisor
// gives other guests, a fifth or more between runs of one build.
//
// Layer → metric predictions (this stage):
//   - netem.send_us_p50, ofswitch.steered_ratio and go.allocs_per_pkt
//     move fwd_kpkt_per_cpu_s_64; go.alloc_bytes_per_pkt moves
//     fwd_kpkt_per_cpu_s_1500;
//   - click.transit_us_p50 (Send return to arrival at h2, including the
//     idleSleep backoff of idle Click drivers) moves fwd_lat_p50_us;
//   - click.lost_pkts and netem.link_drops count failures.
//
// Planned changes: a Click wake-on-enqueue driver moves fwd_lat_p50_us,
// and the fwd_kpkt_per_cpu_s_* metrics must not drop; scale-churn and
// intent-churn stay flat.

type forwardSize struct {
	// setups is how many environments (each with the chain deployed)
	// a run brings up, one after another; the rounds are split evenly
	// over them.
	setups int
	// rounds per half of a run (a traced run has two halves), over all
	// environments.
	rounds int
	// warmup precedes each phase, untimed.
	warmup time.Duration
}

const (
	fwdWindow    = 256
	fwdRing      = 1024 // prebuilt frames per size; > fwdWindow, so a slot is free again before reuse
	smallPayload = 22   // 64 B frames: 14 Ethernet + 20 IPv4 + 8 UDP + 22
	largePayload = 1472 // 1514 B frames: a full 1500 B IP MTU
	udpOffset    = 42   // payload offset in an untagged UDP frame
	seqLen       = 8    // sequence number at the start of each payload
	maxFrames    = 1 << 23
)

// fwdEnv is one environment with the chain deployed.
type fwdEnv struct {
	env    *core.Environment
	name   string
	nfs    []string // NF ids in chain order
	h1, h2 *netem.Host
	// hitsPerFrame is what ChainFlowStats counts for one steered frame:
	// one hit per steering rule at each route's ingress switch.
	hitsPerFrame uint64
}

func fwdTopo() core.TopoSpec {
	return core.TopoSpec{
		Switches: []string{"s1", "s2"},
		Hosts:    map[string]string{"h1": "s1", "h2": "s2"},
		EEs: map[string]core.EESpec{
			"ee1": {Switch: "s1", CPU: 8, Mem: 8192},
			"ee2": {Switch: "s2", CPU: 8, Mem: 8192},
		},
		Trunks: []core.TrunkSpec{{A: "s1", B: "s2"}},
	}
}

func startFwdEnv(chainLen int) (*fwdEnv, error) {
	env, err := core.StartEnvironment(fwdTopo())
	if err != nil {
		return nil, err
	}
	types := make([]string, chainLen)
	for i := range types {
		types[i] = "monitor"
	}
	g := sg.NewChainGraph("fwd", types...)
	g.SAPs[0].ID, g.SAPs[1].ID = "h1", "h2"
	g.Links[0].Src.Node = "h1"
	g.Links[len(g.Links)-1].Dst.Node = "h2"
	if _, err := env.Orch.Deploy(g); err != nil {
		env.Close()
		return nil, err
	}
	f := &fwdEnv{env: env, name: g.Name, h1: env.Host("h1"), h2: env.Host("h2")}
	for _, nf := range g.NFs {
		f.nfs = append(f.nfs, nf.ID)
	}
	f.h2.SetAutoRespond(false)
	return f, nil
}

// frameSet is fwdRing prebuilt frames of one size. Building a frame per
// packet would make the generator, not the chain, the bottleneck.
// golden keeps an untouched copy to check arrivals against.
type frameSet struct {
	frames [][]byte
	golden [][]byte
}

func buildFrames(h1, h2 *netem.Host, payload int, rng *rand.Rand) (*frameSet, error) {
	fs := &frameSet{}
	body := make([]byte, payload)
	for i := 0; i < fwdRing; i++ {
		rng.Read(body[seqLen:])
		f, err := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 4000, 4001, body)
		if err != nil {
			return nil, err
		}
		fs.frames = append(fs.frames, f)
		fs.golden = append(fs.golden, append([]byte(nil), f...))
	}
	return fs, nil
}

// stream is the state of one environment's frame stream, shared by the
// sender and the receiver goroutine across phases: sequence numbers run
// on across phases, so every frame of the run is checked exactly once.
type stream struct {
	f        *fwdEnv
	sent     atomic.Int64
	received atomic.Int64
	dups     atomic.Int64
	corrupt  atomic.Int64
	seen     []uint64 // bitset over sequence numbers; the receiver's alone

	mu      sync.Mutex
	sets    map[int]*frameSet // by frame length
	tokens  chan struct{}     // window slots
	lat     *latencyRec       // non-nil in the latency phase
	stop    chan struct{}
	stopped sync.WaitGroup
}

// latencyRec collects the window-1 phase's timings. The receiver
// stamps a frame's arrival before it frees the window slot; the sender
// reads the stamp after it has taken the slot again for the next frame.
type latencyRec struct {
	arrive          [fwdRing]time.Duration
	clock           *tracer
	oneWay, transit []float64          // µs
	frames          [][4]time.Duration // seq, send start, send end, arrival
}

// sample accounts for one timed frame once its arrival is stamped.
func (l *latencyRec) sample(seq int64, start, end time.Duration) {
	at := l.arrive[seq%fwdRing]
	l.oneWay = append(l.oneWay, us(at-start))
	l.transit = append(l.transit, us(at-end))
	l.frames = append(l.frames, [4]time.Duration{time.Duration(seq), start, end, at})
}

func newStream(f *fwdEnv) *stream {
	s := &stream{f: f, seen: make([]uint64, maxFrames/64), sets: map[int]*frameSet{},
		stop: make(chan struct{})}
	s.stopped.Add(1)
	go s.receive()
	return s
}

func (s *stream) close() {
	close(s.stop)
	s.stopped.Wait()
}

func (s *stream) receive() {
	defer s.stopped.Done()
	rx := s.f.h2.Recv()
	for {
		select {
		case <-s.stop:
			return
		case fr := <-rx:
			s.check(fr.Frame)
		}
	}
}

// check verifies one arrival: a known length, the sent headers, a
// sequence number sent but not yet seen, and the slot's payload bytes.
func (s *stream) check(frame []byte) {
	now := time.Duration(0)
	s.mu.Lock()
	set, lat, tokens := s.sets[len(frame)], s.lat, s.tokens
	s.mu.Unlock()
	if lat != nil {
		now = lat.clock.now()
	}
	// A corrupt frame most likely stands for one sent: it frees a
	// window slot if one is taken, so one bad frame fails the run's
	// check rather than stalling its stream.
	corrupt := func() {
		s.corrupt.Add(1)
		select {
		case <-tokens:
		default:
		}
	}
	if set == nil || len(frame) < udpOffset+seqLen {
		corrupt()
		return
	}
	seq := binary.BigEndian.Uint64(frame[udpOffset:])
	slot := int(seq % fwdRing)
	g := set.golden[slot]
	if int64(seq) >= s.sent.Load() || !bytes.Equal(frame[:udpOffset], g[:udpOffset]) ||
		!bytes.Equal(frame[udpOffset+seqLen:], g[udpOffset+seqLen:]) {
		corrupt()
		return
	}
	word, bit := &s.seen[seq/64], uint64(1)<<(seq%64)
	if *word&bit != 0 {
		s.dups.Add(1)
		return
	}
	*word |= bit
	if lat != nil {
		lat.arrive[slot] = now
	}
	s.received.Add(1)
	if tokens != nil {
		<-tokens
	}
}

// phaseResult is one phase's timed segment.
type phaseResult struct {
	frames  int64
	wall    time.Duration
	cpu     time.Duration
	counted goCounters
	lat     *latencyRec
	sendUS  []float64 // traced: each timed Send call
}

func (p *phaseResult) kpps() float64 { return float64(p.frames) / p.wall.Seconds() / 1e3 }

// phase streams frames of one size with window frames in flight: an
// untimed warm-up, then budget timed. With window 1 it records
// one-way latencies of the timed frames. tr, when non-nil, records a
// span per Send call.
func (s *stream) phase(set *frameSet, window int, warmup, budget time.Duration, tr *tracer) (*phaseResult, error) {
	tokens := make(chan struct{}, window)
	var lat *latencyRec
	if window == 1 {
		lat = &latencyRec{clock: newTracer()}
		if tr != nil {
			lat.clock = tr
		}
	}
	s.mu.Lock()
	s.sets[len(set.frames[0])] = set
	s.tokens, s.lat = tokens, lat
	s.mu.Unlock()

	res := &phaseResult{lat: lat}
	start := time.Now()
	timedFrom, timedTo := start.Add(warmup), start.Add(warmup+budget)
	var before goCounters
	var recvAtStart int64
	var cpu0 time.Duration
	timing := false
	// The window-1 phase's previous frame, sampled once the next send
	// has its slot (the receiver has then stamped its arrival).
	var prev struct {
		seq        int64
		start, end time.Duration
		timed      bool
	}
	prev.seq = -1
	stall := time.NewTimer(time.Hour)
	defer stall.Stop()
	for {
		now := time.Now()
		if !timing && !now.Before(timedFrom) {
			timing = true
			before = readGoCounters()
			cpu0 = cpuTime()
			recvAtStart = s.received.Load()
		}
		if !now.Before(timedTo) {
			break
		}
		select {
		case tokens <- struct{}{}:
		default:
			stall.Reset(2 * time.Second)
			select {
			case tokens <- struct{}{}:
			case <-stall.C:
				return nil, fmt.Errorf("stalled: %d frames in flight for 2s (sent %d, received %d)",
					window, s.sent.Load(), s.received.Load())
			}
			stall.Stop() // Go 1.23+ timers: no stale tick survives Stop
		}
		if lat != nil && prev.seq >= 0 && prev.timed {
			lat.sample(prev.seq, prev.start, prev.end)
		}
		seq := s.sent.Load()
		if seq >= maxFrames {
			return nil, fmt.Errorf("more than %d frames in one run", maxFrames)
		}
		frame := set.frames[seq%fwdRing]
		binary.BigEndian.PutUint64(frame[udpOffset:], uint64(seq))
		s.sent.Add(1)
		var t0, t1 time.Duration
		if lat != nil || tr != nil {
			t0 = lat.clockOr(tr).now()
		}
		if err := s.f.h1.Send(frame); err != nil {
			return nil, err
		}
		if lat != nil || tr != nil {
			t1 = lat.clockOr(tr).now()
		}
		if lat != nil {
			prev.seq, prev.start, prev.end, prev.timed = seq, t0, t1, timing
		}
		if tr != nil && timing && lat == nil {
			tr.record("netem.send", int64(seq), -1, t0, t1)
			res.sendUS = append(res.sendUS, us(t1-t0))
		}
	}
	res.wall = time.Since(timedFrom)
	res.cpu = cpuTime() - cpu0
	res.frames = s.received.Load() - recvAtStart
	res.counted = readGoCounters().since(before)
	// Drain: every frame sent must arrive before the next phase.
	deadline := time.Now().Add(2 * time.Second)
	for s.received.Load()+s.corrupt.Load()+s.dups.Load() < s.sent.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if lat != nil && prev.timed && s.received.Load() == s.sent.Load() {
		lat.sample(prev.seq, prev.start, prev.end)
	}
	s.mu.Lock()
	s.tokens, s.lat = nil, nil
	s.mu.Unlock()
	if tr != nil && lat != nil {
		// One trace per timed frame: the Send call and the transit
		// after it, under the frame's one-way span.
		for _, fr := range lat.frames {
			root := tr.record("fwd.frame", int64(fr[0]), -1, fr[1], fr[3])
			tr.record("netem.send", int64(fr[0]), root, fr[1], fr[2])
			tr.record("click.transit", int64(fr[0]), root, fr[2], fr[3])
		}
	}
	return res, nil
}

// sendOne sends a single frame and waits until it has arrived.
func (s *stream) sendOne(set *frameSet) error {
	s.mu.Lock()
	s.sets[len(set.frames[0])] = set
	s.mu.Unlock()
	seq := s.sent.Load()
	frame := set.frames[seq%fwdRing]
	binary.BigEndian.PutUint64(frame[udpOffset:], uint64(seq))
	s.sent.Add(1)
	if err := s.f.h1.Send(frame); err != nil {
		return err
	}
	for deadline := time.Now().Add(2 * time.Second); s.received.Load() <= seq; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("frame %d not delivered within 2s", seq)
		}
	}
	return nil
}

// clockOr returns the latency clock, or tr when there is none.
func (l *latencyRec) clockOr(tr *tracer) *tracer {
	if l != nil {
		return l.clock
	}
	return tr
}

// runForward brings up forwardSize.setups environments one after
// another, each with the chain deployed, and runs an equal share of the
// rounds on each (in a traced run, untraced then traced), checking every
// frame and monitor counter. Spreading the rounds over environments
// keeps the goroutine and memory layout one environment happened to get
// from setting the whole run's figures.
func runForward(cfg runConfig, budget time.Duration, res *result) (float64, error) {
	sz := cfg.sizes.forward
	envs := max(1, sz.setups)
	halves := []*tracer{nil}
	if cfg.traced {
		halves = append(halves, res.spans)
	}
	// A round runs the 64 B, 1514 B and latency phases for 1:1:2 shares
	// of its time: the latency phase needs 1000 one-way samples over the
	// run for a p99, at a few hundred frames per second. Each figure is
	// the median over rounds, so a burst of outside load moves one round,
	// not the run.
	perRound := budget / time.Duration(len(halves)*sz.rounds)
	seg := max(perRound-3*sz.warmup, perRound/2) / 4
	rng := rand.New(rand.NewSource(cfg.seed))
	accs := make([]fwdAcc, len(halves))
	var setups []float64
	var tot fwdTotals
	for i := 0; i < envs; i++ {
		c0 := cpuTime()
		f, err := startFwdEnv(cfg.workload.chainLen)
		if err != nil {
			return 0, err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		rounds := sz.rounds*(i+1)/envs - sz.rounds*i/envs
		err = f.measure(rng, halves, accs, rounds, sz.warmup, seg, &tot, res)
		f.env.Close()
		if err != nil {
			return 0, err
		}
	}
	for h, tr := range halves {
		a := &accs[h]
		set := &res.endToEnd
		var traced metricSet
		if tr != nil {
			set = &traced
		}
		set.addRounds("fwd_kpps_64", a.k64, "kpps", int(a.frames64))
		set.addRounds("fwd_kpps_1500", a.k1500, "kpps", int(a.frames1500))
		set.addRounds("fwd_kpkt_per_cpu_s_64", a.c64, "kpkt/cpu-s", int(a.frames64))
		set.addRounds("fwd_kpkt_per_cpu_s_1500", a.c1500, "kpkt/cpu-s", int(a.frames1500))
		set.addRounds("fwd_lat_p50_us", a.lat50, "us", len(a.oneWay))
		addQuantile(set, "fwd_lat_p99_us", "us", a.oneWay, 0.99)
		if tr == nil {
			// Allocation counts come from the untraced rounds, where
			// the benchmark itself allocates nothing per frame.
			res.perLayer.add("go.allocs_per_pkt", ratio(float64(a.allocs64), float64(a.frames64)), "count", int(a.frames64))
			res.perLayer.add("go.alloc_bytes_per_pkt", ratio(float64(a.bytes1500), float64(a.frames1500)), "B", int(a.frames1500))
		} else {
			addQuantile(&res.perLayer, "netem.send_us_p50", "us", a.sendUS, 0.5)
			addQuantile(&res.perLayer, "click.transit_us_p50", "us", a.transit, 0.5)
			res.compareTraced(res.endToEnd, traced)
		}
	}
	tot.report(res)
	return median(setups), nil
}

// fwdAcc accumulates the rounds of one half of a run over all
// environments.
type fwdAcc struct {
	k64, k1500, c64, c1500, lat50 []float64 // per round
	oneWay, transit, sendUS       []float64 // per frame, µs
	allocs64, bytes1500           uint64
	frames64, frames1500          int64
}

// fwdTotals sums the stage's frame and counter checks over all
// environments.
type fwdTotals struct {
	sent, lost, drops int64
	steered, expected float64 // ChainFlowStats packets, and as many if all were steered
}

// measure runs rounds rounds of the three phases per half on f, with
// frames drawn from rng, then checks the stream and the chain's
// counters.
func (f *fwdEnv) measure(rng *rand.Rand, halves []*tracer, accs []fwdAcc, rounds int,
	warmup, seg time.Duration, tot *fwdTotals, res *result) error {
	small, err := buildFrames(f.h1, f.h2, smallPayload, rng)
	if err != nil {
		return err
	}
	large, err := buildFrames(f.h1, f.h2, largePayload, rng)
	if err != nil {
		return err
	}
	s := newStream(f)
	err = s.rounds(small, large, halves, accs, rounds, warmup, seg)
	s.close()
	if err != nil {
		return err
	}
	f.check(s, tot, res)
	return nil
}

// rounds runs rounds rounds of the three phases per half on the
// stream's environment.
func (s *stream) rounds(small, large *frameSet, halves []*tracer, accs []fwdAcc, rounds int,
	warmup, seg time.Duration) error {
	// One frame alone first: how many steering-rule hits ChainFlowStats
	// counts per frame, the base of ofswitch.steered_ratio.
	if err := s.sendOne(small); err != nil {
		return err
	}
	var err error
	if s.f.hitsPerFrame, _, err = s.f.env.Orch.ChainFlowStats(s.f.name); err != nil {
		return err
	}
	for h, tr := range halves {
		a := &accs[h]
		for r := 0; r < rounds; r++ {
			runtime.GC()
			p64, err := s.phase(small, fwdWindow, warmup, seg, tr)
			if err != nil {
				return fmt.Errorf("64 B phase: %w", err)
			}
			p1500, err := s.phase(large, fwdWindow, warmup, seg, nil)
			if err != nil {
				return fmt.Errorf("1514 B phase: %w", err)
			}
			pLat, err := s.phase(small, 1, warmup, 2*seg, tr)
			if err != nil {
				return fmt.Errorf("latency phase: %w", err)
			}
			a.k64 = append(a.k64, p64.kpps())
			a.c64 = append(a.c64, float64(p64.frames)/p64.cpu.Seconds()/1e3)
			a.c1500 = append(a.c1500, float64(p1500.frames)/p1500.cpu.Seconds()/1e3)
			a.k1500 = append(a.k1500, p1500.kpps())
			if len(pLat.lat.oneWay) > 0 {
				a.lat50 = append(a.lat50, median(append([]float64(nil), pLat.lat.oneWay...)))
			}
			a.oneWay = append(a.oneWay, pLat.lat.oneWay...)
			a.transit = append(a.transit, pLat.lat.transit...)
			a.sendUS = append(a.sendUS, p64.sendUS...)
			a.allocs64 += p64.counted.allocObjects
			a.frames64 += p64.frames
			a.bytes1500 += p1500.counted.allocBytes
			a.frames1500 += p1500.frames
		}
	}
	return nil
}

// check verifies the stream and the chain's counters, and adds them to
// the stage's totals.
func (f *fwdEnv) check(s *stream, tot *fwdTotals, res *result) {
	sent, recv := s.sent.Load(), s.received.Load()
	lost := sent - recv
	res.attempted += int(sent)
	res.failed += int(lost + s.corrupt.Load())
	res.checkf(lost == 0 && s.dups.Load() == 0 && s.corrupt.Load() == 0,
		"chain-forward: sent %d, received %d once and intact, %d duplicates, %d corrupt",
		sent, recv, s.dups.Load(), s.corrupt.Load())
	for _, nf := range f.nfs {
		n, err := f.monitorCount(nf)
		res.checkf(err == nil && n == sent, "chain-forward: %s counted %d of %d frames (err %v)", nf, n, sent, err)
	}
	for _, l := range f.env.Net.Links() {
		st := l.Stats()
		tot.drops += int64(st.ABDrops + st.BADrops)
	}
	pkts, _, err := f.env.Orch.ChainFlowStats(f.name)
	res.checkf(err == nil, "chain-forward: flow stats: %v", err)
	tot.sent += sent
	tot.lost += lost
	tot.steered += float64(pkts)
	tot.expected += float64(sent) * float64(f.hitsPerFrame)
}

// report gives the stage's steering ratio and failure counts.
func (t *fwdTotals) report(res *result) {
	pl := &res.perLayer
	pl.add("ofswitch.steered_ratio", ratio(t.steered, t.expected), "ratio", int(t.sent))
	pl.add("click.lost_pkts", float64(max(0, t.lost-t.drops)), "count", int(t.sent))
	pl.add("netem.link_drops", float64(t.drops), "count", int(t.sent))
}

// monitorCount reads a monitor VNF's Counter over its Click control
// socket.
func (f *fwdEnv) monitorCount(nf string) (int64, error) {
	svc := f.env.Orch.Service(f.name)
	if svc == nil {
		return 0, fmt.Errorf("service %s gone", f.name)
	}
	dep := svc.NFs[nf]
	if dep == nil {
		return 0, fmt.Errorf("NF %s not deployed", nf)
	}
	cc, err := click.DialControl(dep.Control)
	if err != nil {
		return 0, err
	}
	defer cc.Close()
	v, err := cc.Read("cnt.count")
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(v, 10, 64)
}
