package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"escape/internal/api"
	"escape/internal/catalog"
	"escape/internal/core"
	"escape/internal/sg"
)

// intent-churn: an in-process escaped stack wired as cmd/escaped wires
// it — api.Server on loopback HTTP, api.Store with its fsync'd WAL,
// api.Reconciler, api.CoreBackend over core.StartEnvironment (netem,
// Click VNFs, NETCONF agents, POX steering) — driven by a closed loop of
// nproc clients, one tenant each. A cycle POSTs an intent with ?wait
// until it runs, GETs it, DELETEs it and polls until it is gone. NF
// types and chain length vary by seed around the workload's length.
// The cycle rate is declared per CPU-second (intents_per_cpu_s); the
// wall-clock intents_per_s is in the report lines.
//
// Layer → metric predictions (this stage):
//   - api.accept_ms_p50 (HTTP, auth, WAL fsync, reconciler pickup) and
//     api.reply_tail_ms_p50 (the 10 ms ?wait poll in finishIntent) move
//     deploy_p50_ms;
//   - core.deploy_ms_p50, core.map_ms_p50, vnfagent.realize_ms_p50 and
//     steering.install_ms_p50 move deploy_p50_ms;
//   - core.undeploy_ms_p50 moves undeploy_p50_ms;
//   - api.delete_ack_ms_p50 (write path), api.get_ms_p50 (read path),
//     api.reconcile_runs_per_intent, api.reconcile_errors and
//     api.rejected_429 move intents_per_cpu_s.
//
// Planned changes: an event-driven ?wait moves only deploy_p50_ms (and
// the wall-clock intents_per_s through it); the dense-ID view leaves
// this stage flat,
// since core.map_ms_p50 is a small share of a deploy.

type intentSize struct {
	// cyclesPerClient is one round's work per client.
	cyclesPerClient int
	// minRounds is the least number of untraced rounds.
	minRounds int
}

// The daemon's defaults (cmd/escaped flags), except the per-tenant rate
// limit, which is off: the stage measures the control plane's
// capacity, not the limiter's policy.
const (
	intentQueueSlots = 64
	intentWorkers    = 4
	intentResync     = 2 * time.Second
	intentWait       = "30s"
	adminToken       = "bench-admin"
	// undeployPoll spaces the GETs that wait for a deleted intent to
	// disappear.
	undeployPoll = 500 * time.Microsecond
)

// nfTypes are the catalog types with one in and one out port.
var nfTypes = []string{"monitor", "simpleForwarder", "headerCompressor", "headerDecompressor",
	"firewall", "dpi", "loadbalancer", "ratelimiter"}

// intentStack is one running escaped stack.
type intentStack struct {
	env     *core.Environment
	gate    *api.QuotaGate
	store   *api.Store
	metrics *api.Metrics
	rec     *api.Reconciler
	srv     *http.Server
	served  chan error
	base    string
	tenants []string
	tokens  []string
}

// daemonTopo is cmd/escaped's embedded topology at its default flags: two
// EEs split across s1/s2, host pairs h{i}a/h{i}b as the tenants' SAPs.
func daemonTopo() core.TopoSpec {
	spec := core.TopoSpec{
		Switches: []string{"s1", "s2"},
		Hosts:    map[string]string{},
		EEs: map[string]core.EESpec{
			"ee1": {Switch: "s1", CPU: 8, Mem: 4096},
			"ee2": {Switch: "s2", CPU: 8, Mem: 4096},
		},
		Trunks: []core.TrunkSpec{{A: "s1", B: "s2"}},
	}
	for i := 0; i < 8; i++ {
		spec.Hosts[fmt.Sprintf("h%da", i)] = "s1"
		spec.Hosts[fmt.Sprintf("h%db", i)] = "s2"
	}
	return spec
}

// startIntentStack brings the stack up and creates one tenant per
// client over the admin API. probe, when non-nil, decorates the backend.
func startIntentStack(dir string, nTenants int, probe *deployProbe) (st *intentStack, err error) {
	st = &intentStack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	if st.env, err = core.StartEnvironment(daemonTopo()); err != nil {
		return st, err
	}
	st.gate = api.NewQuotaGate()
	st.env.View.SetCommitGate(st.gate)
	if st.store, err = api.OpenStore(dir); err != nil {
		return st, err
	}
	st.metrics = &api.Metrics{}
	log := slog.New(slog.NewJSONHandler(io.Discard, nil))
	var backend api.Backend = &api.CoreBackend{Orch: st.env.Orch}
	if probe != nil {
		backend = wrapBackend(backend, probe)
	}
	st.rec = &api.Reconciler{Store: st.store, Backend: backend, Metrics: st.metrics,
		Log: log, Workers: intentWorkers, Resync: intentResync}
	st.rec.Start()
	srv := api.NewServer(api.ServerConfig{
		Store: st.store, Backend: backend, Reconciler: st.rec, Gate: st.gate,
		Metrics: st.metrics, Catalog: catalog.Default(), AdminToken: adminToken,
		QueueSlots: intentQueueSlots, Log: log,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.base = "http://" + ln.Addr().String()
	st.srv = &http.Server{Handler: srv.Handler()}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()

	c := newHTTPClient(1)
	defer c.CloseIdleConnections()
	for i := 0; i < nTenants; i++ {
		name := fmt.Sprintf("t%d", i)
		body := fmt.Sprintf(`{"name":%q,"quota":{"cpu":8,"mem":8192}}`, name)
		code, resp, err := request(c, http.MethodPost, st.base+"/v1/tenants", adminToken, []byte(body))
		if err != nil {
			return st, err
		}
		if code != http.StatusCreated {
			return st, fmt.Errorf("creating tenant %s: HTTP %d: %s", name, code, resp)
		}
		var t api.Tenant
		if err := json.Unmarshal(resp, &t); err != nil {
			return st, err
		}
		st.tenants = append(st.tenants, name)
		st.tokens = append(st.tokens, t.Token)
	}
	return st, nil
}

// close shuts the stack down in the daemon's order: HTTP, reconciler,
// store, environment.
func (st *intentStack) close() {
	if st.srv != nil {
		st.srv.Close()
		<-st.served
	}
	if st.rec != nil {
		st.rec.Stop()
	}
	if st.store != nil {
		st.store.Close()
	}
	if st.env != nil {
		st.env.Close()
	}
}

// checkDrained verifies that everything the cycles deployed is gone:
// no steering paths, no services, no quota charged to any tenant.
func (st *intentStack) checkDrained(res *result) {
	st.rec.AwaitIdle(5 * time.Second)
	res.checkf(st.env.Steering.ActivePaths() == 0, "intent-churn: %d steering paths left", st.env.Steering.ActivePaths())
	res.checkf(len(st.env.Orch.Services()) == 0, "intent-churn: services left: %v", st.env.Orch.Services())
	for _, t := range st.tenants {
		cpu, mem, bw, svc := st.gate.Usage(t)
		res.checkf(cpu == 0 && mem == 0 && bw == 0 && svc == 0,
			"intent-churn: tenant %s still charged cpu=%g mem=%d bw=%g services=%d", t, cpu, mem, bw, svc)
	}
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		},
	}
}

func request(c *http.Client, method, url, token string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// runIntent runs rounds until the budget is spent (at least
// minRounds): each round sets a fresh stack up (a set-up sample), runs
// cyclesPerClient cycles on every client and tears the stack down. A
// traced run spends half the budget on untraced rounds and half on
// rounds with the probes attached. Returns the median set-up seconds.
//
// Rounds of fixed work keep each round's inputs a function of the seed
// and bound what one stack accumulates, and the median over rounds
// keeps a burst of outside load from moving a whole run's figures.
func runIntent(cfg runConfig, budget time.Duration, res *result) (float64, error) {
	sz := cfg.sizes.intent
	n := clients()
	var setups []float64
	round := func(r int, probe *deployProbe) (*loopStats, error) {
		runtime.GC()
		c0 := cpuTime()
		st, err := startIntentStack(fmt.Sprintf("%s/intent-%d", cfg.workDir, r), n, probe)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		var drained sync.WaitGroup
		cancel := func() {}
		if probe != nil {
			var events <-chan core.Event
			events, cancel = st.env.Orch.Subscribe(1 << 14)
			drained.Add(1)
			go func() {
				defer drained.Done()
				for ev := range events {
					probe.lifecycle(ev)
				}
			}()
		}
		c1 := cpuTime()
		l := runCycles(st, cfg, r, sz.cyclesPerClient, probe)
		l.cpu = cpuTime() - c1
		st.checkDrained(res)
		res.heap.settle() // what a stack retains peaks at the end of its round
		cancel()
		drained.Wait()
		st.close()
		l.account(res)
		l.reconcileRuns = st.metrics.ReconcileRuns.Load()
		l.reconcileErrors = st.metrics.ReconcileErrors.Load()
		l.rejected429 = st.metrics.Rejected429.Load()
		return l, nil
	}
	rounds := func(first int, budget time.Duration, least int, probe *deployProbe) (loopRounds, error) {
		var out loopRounds
		start := time.Now()
		for r := first; len(out) < least || time.Since(start) < budget; r++ {
			l, err := round(r, probe)
			if err != nil {
				return nil, err
			}
			out = append(out, l)
		}
		return out, nil
	}

	plainBudget := budget
	if cfg.traced {
		plainBudget = budget / 2
	}
	plain, err := rounds(0, plainBudget, sz.minRounds, nil)
	if err != nil {
		return 0, err
	}
	plain.report(&res.endToEnd)
	fmt.Fprintf(cfg.log, "intent-churn: %d clients, %d rounds of %d cycles\n", n, len(plain), n*sz.cyclesPerClient)
	if cfg.traced {
		probe := newDeployProbe(res.spans)
		from := res.spans.len()
		traced, err := rounds(len(plain), budget-plainBudget, 1, probe)
		if err != nil {
			return 0, err
		}
		var set metricSet
		traced.report(&set)
		res.compareTraced(res.endToEnd, set)
		probe.report(res, from, traced)
	}
	return median(setups), nil
}

// loopRounds are the rounds of one kind (traced or not).
type loopRounds []*loopStats

// report gives the median over rounds of each round's rate and p50s,
// and the p99 over every deploy of every round.
func (rs loopRounds) report(set *metricSet) {
	var rate, dep50, undep50, deploys, cpuRate []float64
	cycles, undeploys := 0, 0
	for _, l := range rs {
		rate = append(rate, float64(l.cycles)/l.wall.Seconds())
		cpuRate = append(cpuRate, float64(l.cycles)/l.cpu.Seconds())
		if len(l.deploy) > 0 {
			dep50 = append(dep50, median(append([]float64(nil), l.deploy...)))
		}
		if len(l.undepl) > 0 {
			undep50 = append(undep50, median(append([]float64(nil), l.undepl...)))
		}
		deploys = append(deploys, l.deploy...)
		cycles += l.cycles
		undeploys += len(l.undepl)
	}
	set.addRounds("intents_per_s", rate, "1/s", cycles)
	set.addRounds("intents_per_cpu_s", cpuRate, "1/cpu-s", cycles)
	set.addRounds("deploy_p50_ms", dep50, "ms", len(deploys))
	addQuantile(set, "deploy_p99_ms", "ms", deploys, 0.99)
	set.addRounds("undeploy_p50_ms", undep50, "ms", undeploys)
}

// loopStats is what the closed loop observed.
type loopStats struct {
	mu                   sync.Mutex
	deploy, undepl       []float64 // ms
	cycles               int
	wall, cpu            time.Duration
	attempted, failed    int
	notRunning, timeouts int
	fail429              int
	// The stack's api.Metrics counters at the end of the round.
	reconcileRuns, reconcileErrors, rejected429 uint64
}

func (l *loopStats) account(res *result) {
	res.attempted += l.attempted
	res.failed += l.failed
	res.checkf(l.notRunning == 0, "intent-churn: %d ?wait replies were not running", l.notRunning)
	res.checkf(l.failed == 0, "intent-churn: %d of %d requests failed (%d HTTP 429, %d timeouts)",
		l.failed, l.attempted, l.fail429, l.timeouts)
}

// runCycles runs round r's closed loop: one client per tenant, each
// starting its next cycle only when the previous one is done, for
// cycles cycles each.
func runCycles(st *intentStack, cfg runConfig, r, cycles int, probe *deployProbe) *loopStats {
	l := &loopStats{}
	c := newHTTPClient(len(st.tenants))
	defer c.CloseIdleConnections()
	start := time.Now()
	var wg sync.WaitGroup
	for k := range st.tenants {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl := &intentClient{st: st, c: c, k: k, round: r, probe: probe, l: l,
				rng:      rand.New(rand.NewSource((cfg.seed*1000+int64(r))*64 + int64(k))),
				chainLen: cfg.workload.chainLen}
			for i := 0; i < cycles; i++ {
				cl.cycle(i)
			}
		}(k)
	}
	wg.Wait()
	l.wall = time.Since(start)
	return l
}

// intentClient is one tenant's closed-loop client.
type intentClient struct {
	st       *intentStack
	c        *http.Client
	k, round int
	probe    *deployProbe
	l        *loopStats
	rng      *rand.Rand
	chainLen int
}

// call performs one request and accounts for it: any status other than
// want counts as failed.
func (cl *intentClient) call(method, path string, body []byte, want int) (int, []byte, time.Duration, bool) {
	t0 := time.Now()
	code, resp, err := request(cl.c, method, cl.st.base+path, cl.st.tokens[cl.k], body)
	d := time.Since(t0)
	cl.l.mu.Lock()
	defer cl.l.mu.Unlock()
	cl.l.attempted++
	switch {
	case err != nil:
		cl.l.failed++
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			cl.l.timeouts++
		}
		return 0, nil, d, false
	case code == http.StatusTooManyRequests:
		cl.l.failed++
		cl.l.fail429++
		return code, resp, d, false
	case code != want:
		cl.l.failed++
		return code, resp, d, false
	}
	return code, resp, d, true
}

// graphFor builds cycle i's intent: a chain of chainLen-1 or chainLen
// NFs of seeded types between the tenant's host pair.
func (cl *intentClient) graphFor(name string) []byte {
	n := cl.chainLen - cl.rng.Intn(2)
	types := make([]string, max(1, n))
	for i := range types {
		types[i] = nfTypes[cl.rng.Intn(len(nfTypes))]
	}
	g := sg.NewChainGraph(name, types...)
	src, dst := fmt.Sprintf("h%da", cl.k), fmt.Sprintf("h%db", cl.k)
	g.SAPs[0].ID, g.SAPs[1].ID = src, dst
	g.Links[0].Src.Node = src
	g.Links[len(g.Links)-1].Dst.Node = dst
	raw, err := g.ToJSON()
	if err != nil {
		panic(err) // a chain graph built here always serializes
	}
	body, err := json.Marshal(map[string]json.RawMessage{"graph": raw})
	if err != nil {
		panic(err)
	}
	return body
}

func (cl *intentClient) cycle(i int) {
	name := fmt.Sprintf("r%d-c%d", cl.round, i)
	id := api.ServiceName(cl.st.tenants[cl.k], name)
	body := cl.graphFor(name)
	path := "/v1/intents/" + name

	if cl.probe != nil {
		cl.probe.posted(id)
	}
	_, resp, d, ok := cl.call(http.MethodPost, "/v1/intents?wait="+intentWait, body, http.StatusOK)
	if cl.probe != nil {
		cl.probe.replied(id)
	}
	var status struct {
		Running bool `json:"running"`
	}
	if ok && (json.Unmarshal(resp, &status) != nil || !status.Running) {
		ok = false
		cl.l.mu.Lock()
		cl.l.notRunning++
		cl.l.mu.Unlock()
	}
	if ok {
		cl.l.mu.Lock()
		cl.l.deploy = append(cl.l.deploy, ms(d))
		cl.l.mu.Unlock()
	}
	if _, _, d, ok := cl.call(http.MethodGet, path, nil, http.StatusOK); ok {
		cl.probe.observe(probeGet, d)
	}

	delStart := time.Now()
	_, _, d, ok = cl.call(http.MethodDelete, path, nil, http.StatusAccepted)
	if !ok {
		return
	}
	cl.probe.observe(probeDelete, d)
	for {
		time.Sleep(undeployPoll)
		code, _, err := request(cl.c, http.MethodGet, cl.st.base+path, cl.st.tokens[cl.k], nil)
		if err == nil && code == http.StatusNotFound {
			break
		}
		if err != nil || code != http.StatusOK || time.Since(delStart) > time.Minute {
			cl.l.mu.Lock()
			cl.l.attempted++
			cl.l.failed++
			if err == nil && code == http.StatusTooManyRequests {
				cl.l.fail429++
			} else if err != nil || code == http.StatusOK {
				cl.l.timeouts++
			}
			cl.l.mu.Unlock()
			return
		}
	}
	cl.l.mu.Lock()
	cl.l.attempted++ // the undeploy as a whole: DELETE until gone
	cl.l.undepl = append(cl.l.undepl, ms(time.Since(delStart)))
	cl.l.cycles++
	cl.l.mu.Unlock()
}

// deployProbe collects, per intent, the timestamps the per-layer
// metrics of intent-churn are differences of: the client's POST and
// reply, the backend decorator's Deploy entry and exit, and the
// lifecycle transitions from Orchestrator.Subscribe. All times are
// offsets on the run's tracer clock.
type deployProbe struct {
	tr *tracer

	mu     sync.Mutex
	cycles map[string]*cycleTimes
	order  []string
}

type cycleTimes struct {
	trace                                int64
	post, reply, enter, exit             time.Duration
	mapped, realizing, steering, running time.Duration
	postSpan                             int
	undeploy                             []time.Duration
}

func newDeployProbe(tr *tracer) *deployProbe {
	return &deployProbe{tr: tr, cycles: map[string]*cycleTimes{}}
}

// at returns id's record, creating it; the caller holds p.mu.
func (p *deployProbe) at(id string) *cycleTimes {
	c := p.cycles[id]
	if c == nil {
		c = &cycleTimes{trace: int64(len(p.order)), postSpan: -1}
		p.cycles[id] = c
		p.order = append(p.order, id)
	}
	return c
}

func (p *deployProbe) posted(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.at(id)
	c.post = p.tr.now()
	c.postSpan = p.tr.record("api.post", c.trace, -1, c.post, -1)
}

func (p *deployProbe) replied(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.at(id)
	c.reply = p.tr.close(c.postSpan)
}

func (p *deployProbe) deployed(id string, enter, exit time.Duration) {
	p.mu.Lock()
	c := p.at(id)
	c.enter, c.exit = enter, exit
	trace, parent := c.trace, c.postSpan
	p.mu.Unlock()
	p.tr.record("core.deploy", trace, parent, enter, exit)
}

func (p *deployProbe) undeployed(id string, enter, exit time.Duration) {
	p.mu.Lock()
	c := p.at(id)
	c.undeploy = append(c.undeploy, exit-enter)
	trace := c.trace
	p.mu.Unlock()
	p.tr.record("core.undeploy", trace, -1, enter, exit)
}

// lifecycle records one transition from the orchestrator's event stream.
func (p *deployProbe) lifecycle(ev core.Event) {
	at := ev.Time.Sub(p.tr.base)
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.at(ev.Service)
	switch ev.State {
	case core.StateMapped:
		c.mapped = at
	case core.StateRealizing:
		c.realizing = at
	case core.StateSteering:
		c.steering = at
	case core.StateRunning:
		c.running = at
	}
}

type probeKind string

const (
	probeGet    probeKind = "api.get"
	probeDelete probeKind = "api.delete"
)

// observe records one client round trip; a nil probe records nothing.
func (p *deployProbe) observe(kind probeKind, d time.Duration) {
	if p == nil {
		return
	}
	end := p.tr.now()
	p.tr.record(string(kind), -1, -1, end-d, end)
}

// report reduces the probe's records to intent-churn's per-layer
// metrics. Phase spans derived from lifecycle events are recorded as
// children of their deploy span.
func (p *deployProbe) report(res *result, from int, rounds loopRounds) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var accept, tail, deploy, mapped, realize, install, undeploy []float64
	for _, id := range p.order {
		c := p.cycles[id]
		if c.enter == 0 || c.exit == 0 {
			continue
		}
		deploy = append(deploy, ms(c.exit-c.enter))
		if c.post > 0 {
			accept = append(accept, ms(c.enter-c.post))
		}
		if c.reply > 0 {
			tail = append(tail, ms(c.reply-c.exit))
		}
		if c.mapped > 0 {
			mapped = append(mapped, ms(c.mapped-c.enter))
			p.tr.record("core.map", c.trace, -1, c.enter, c.mapped)
		}
		if c.realizing > 0 && c.steering > 0 {
			realize = append(realize, ms(c.steering-c.realizing))
			p.tr.record("vnfagent.realize", c.trace, -1, c.realizing, c.steering)
		}
		if c.steering > 0 && c.running > 0 {
			install = append(install, ms(c.running-c.steering))
			p.tr.record("steering.install", c.trace, -1, c.steering, c.running)
		}
		for _, d := range c.undeploy {
			undeploy = append(undeploy, ms(d))
		}
	}
	pl := &res.perLayer
	addQuantile(pl, "api.accept_ms_p50", "ms", accept, 0.5)
	addQuantile(pl, "api.reply_tail_ms_p50", "ms", tail, 0.5)
	addQuantile(pl, "core.deploy_ms_p50", "ms", deploy, 0.5)
	addQuantile(pl, "core.map_ms_p50", "ms", mapped, 0.5)
	addQuantile(pl, "vnfagent.realize_ms_p50", "ms", realize, 0.5)
	addQuantile(pl, "steering.install_ms_p50", "ms", install, 0.5)
	addQuantile(pl, "core.undeploy_ms_p50", "ms", undeploy, 0.5)
	addQuantile(pl, "api.delete_ack_ms_p50", "ms", durations(p.tr.durationsOf(from, string(probeDelete)), ms), 0.5)
	addQuantile(pl, "api.get_ms_p50", "ms", durations(p.tr.durationsOf(from, string(probeGet)), ms), 0.5)
	var cycles int
	var runs, errs, rejected uint64
	for _, l := range rounds {
		cycles += l.cycles
		runs += l.reconcileRuns
		errs += l.reconcileErrors
		rejected += l.rejected429
	}
	pl.add("api.reconcile_runs_per_intent", ratio(float64(runs), float64(cycles)), "ratio", cycles)
	pl.add("api.reconcile_errors", float64(errs), "count", cycles)
	pl.add("api.rejected_429", float64(rejected), "count", cycles)
}

// probedBackend decorates an api.Backend, timing Deploy and Undeploy.
type probedBackend struct {
	api.Backend
	p *deployProbe
}

// probedEventBackend is probedBackend over a backend that is also an
// api.EventSource; it forwards Subscribe so the reconciler keeps its
// event-driven drift detection exactly as over the bare backend.
type probedEventBackend struct {
	*probedBackend
	src api.EventSource
}

func (b *probedEventBackend) Subscribe(buf int) (<-chan core.Event, func()) {
	return b.src.Subscribe(buf)
}

func wrapBackend(b api.Backend, p *deployProbe) api.Backend {
	pb := &probedBackend{Backend: b, p: p}
	if src, ok := b.(api.EventSource); ok {
		return &probedEventBackend{probedBackend: pb, src: src}
	}
	return pb
}

func (b *probedBackend) Deploy(g *sg.Graph) error {
	enter := b.p.tr.now()
	err := b.Backend.Deploy(g)
	b.p.deployed(g.Name, enter, b.p.tr.now())
	return err
}

func (b *probedBackend) Undeploy(name string) error {
	enter := b.p.tr.now()
	err := b.Backend.Undeploy(name)
	b.p.undeployed(name, enter, b.p.tr.now())
	return err
}
