package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"dqm"
	"dqm/internal/votelog"
)

// monitorProcs is the GOMAXPROCS of the monitor client and server. The
// monitor's load is one closed-loop request stream, which one P per process
// serves; with two, idle Ps spin and hand wakeups across CPUs, and on a
// 2-CPU box six interleaved runs of each setting gave a spread of about
// ±12% on ingest_p50_ms and read_p50_ms with two against about ±5% with
// one. The traced in-process replay runs with nproc.
const monitorProcs = 1

// monStageCycles is the length of the traced run's stage phase: write and
// fresh-read pairs only, so the estimates route's handler mean covers fresh
// reads alone.
const monStageCycles = 1000

// monitorState is one set-up monitor server with its op stream.
type monitorState struct {
	plan  *monitorPlan
	ref   []served
	dir   string
	srv   *serverProc
	cycle *client
	admin *client
	watch *watcher
	acked int64
}

func (s *monitorState) teardown() {
	if s.watch != nil {
		s.watch.stop()
	}
	for _, c := range []*client{s.cycle, s.admin} {
		if c != nil {
			c.close()
		}
	}
	if s.srv != nil {
		s.srv.kill()
	}
	os.RemoveAll(s.dir)
}

// monitorDQMConfig is monitorSessionConfig as a library config, for the
// reference.
func monitorDQMConfig() dqm.Config {
	cfg := dqm.Defaults()
	cfg.TrackConfidence = true
	cfg.Window = &dqm.WindowConfig{Size: monWindowSize, Stride: monWindowStride, DecayAlpha: monDecayAlpha}
	return cfg
}

// setupMonitor generates the op stream and its reference, starts a server
// with the gate policy, creates and preloads the sessions, opens the watch
// and runs the warm-up cycles.
func setupMonitor(cfg runCfg, k int, t *tally) (*monitorState, error) {
	stage := 0
	if cfg.Trace {
		stage = monStageCycles
	}
	st := &monitorState{plan: planMonitor(cfg.Seed, cfg.Seconds, stage), dir: filepath.Join(cfg.Work, fmt.Sprintf("monitor-%d", k))}
	plan := st.plan
	for i, s := range plan.Sessions {
		st.ref = append(st.ref, referenceServed(s, plan.measuredTasks[i], monitorDQMConfig()))
	}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, err
	}
	policyPath := filepath.Join(st.dir, "policy.json")
	if err := os.WriteFile(policyPath, []byte(monitorPolicy), 0o644); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	st.srv, _, err = startServer(cfg.Bin, addr, monitorProcs,
		"-data-dir", filepath.Join(st.dir, "data"), "-fsync", "never",
		"-policy-file", policyPath, "-watch-min-interval", monWatchMinInterval.String())
	if err != nil {
		return nil, err
	}
	st.admin = newClient(addr)
	st.cycle = newClient(addr)
	for _, s := range plan.Sessions {
		st.admin.createSession(t, s.ID, s.Items, monitorSessionConfig)
	}
	// Preload over both connections, each taking half of the sessions.
	var wg sync.WaitGroup
	var tl [2]tally
	for l, c := range []*client{st.admin, st.cycle} {
		wg.Add(1)
		go func(l int, c *client) {
			defer wg.Done()
			for i := l; i < len(plan.Preload); i += 2 {
				r := plan.Preload[i]
				c.postVotes(&tl[l], plan.Sessions[r.Session].ID, votelog.ContentTypeDQMV, r)
			}
		}(l, c)
	}
	wg.Wait()
	t.add(tl[0])
	t.add(tl[1])
	for _, r := range plan.Preload {
		st.acked += int64(r.Votes)
	}
	if st.watch, err = startWatch(addr, plan.Sessions[0].ID); err != nil {
		t.fail("%v", err)
		return st, nil
	}
	t.ok()
	var discard cycleSamples
	for i, r := range plan.Warm {
		monitorCycle(st.cycle, t, plan, i, r, &discard)
		st.acked += int64(r.Votes)
	}
	return st, nil
}

// cycleSamples collects cycles' latencies and hot-session write
// acknowledgements.
type cycleSamples struct {
	ingest, read, ci latencies
	hotAcks          []watchEvent
	reqs             int
	reads            int // GETs on the estimates route
	stale            int // fresh reads that did not reflect the write
	votes            int
}

func (c *cycleSamples) merge(o cycleSamples) {
	c.ingest = append(c.ingest, o.ingest...)
	c.read = append(c.read, o.read...)
	c.ci = append(c.ci, o.ci...)
	c.hotAcks = append(c.hotAcks, o.hotAcks...)
	c.reqs += o.reqs
	c.reads += o.reads
	c.stale += o.stale
	c.votes += o.votes
}

// monitorCycle runs one cycle: the write, a fresh read, a current-window
// read, the gate, and every monCIEvery-th cycle a bootstrap CI read.
func monitorCycle(c *client, t *tally, plan *monitorPlan, i int, r request, cs *cycleSamples) {
	id := plan.Sessions[r.Session].ID
	base := "/v1/sessions/" + id
	start := time.Now()
	ack, ok := c.postVotes(t, id, "application/json", r)
	cs.reqs++
	cs.votes += r.Votes
	if ok {
		cs.ingest.add(time.Since(start))
		if r.Session == 0 {
			cs.hotAcks = append(cs.hotAcks, watchEvent{Tasks: ack.Tasks, At: time.Now()})
		}
	}
	start = time.Now()
	b, rok := c.call(t, "GET", base+"/estimates", "", nil)
	cs.reqs++
	cs.reads++
	if rok {
		cs.read.add(time.Since(start))
		if s, err := parseServed(b); err != nil || (ok && s.Tasks != ack.Tasks) {
			cs.stale++
		}
	}
	c.call(t, "GET", base+"/estimates?window=current", "", nil)
	c.call(t, "GET", base+"/gate", "", nil)
	cs.reqs += 2
	cs.reads++
	if i%monCIEvery == monCIEvery-1 {
		start = time.Now()
		if _, ok := c.call(t, "GET", base+"/estimates?ci=0.95&replicates="+strconv.Itoa(monCIReplicates), "", nil); ok {
			cs.ci.add(time.Since(start))
		}
		cs.reqs++
		cs.reads++
	}
}

// monSample is what one server process's measured phase yields.
type monSample struct {
	cs                                      cycleSamples
	wall                                    time.Duration
	rate, cpuPerReq, ingest50, read50, ci50 []float64 // per slice
	lags                                    latencies
	events                                  int
	before, after                           scrape
	peak                                    float64
}

// measureMonitor runs the measured cycles against st's server in slices
// (see measuredRounds), then checks the watch stream, the fresh reads and
// every session's final estimates.
func measureMonitor(st *monitorState, rep *report) (*monSample, error) {
	plan := st.plan
	m := &monSample{}
	var err error
	if m.before, err = st.admin.metrics(); err != nil {
		return nil, err
	}
	pid := st.srv.cmd.Process.Pid
	for k := 0; k < measuredRounds; k++ {
		lo, hi := slice(len(plan.Cycles), measuredRounds, k)
		var rs cycleSamples
		c0, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			monitorCycle(st.cycle, &rep.tally, plan, i, plan.Cycles[i], &rs)
		}
		w := time.Since(t0)
		c1, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		m.wall += w
		m.rate = append(m.rate, float64(rs.votes)/w.Seconds())
		m.cpuPerReq = append(m.cpuPerReq, float64(c1-c0)/float64(time.Microsecond)/float64(rs.reqs))
		m.ingest50 = append(m.ingest50, rs.ingest.p50())
		m.read50 = append(m.read50, rs.read.p50())
		m.ci50 = append(m.ci50, rs.ci.p50())
		m.cs.merge(rs)
	}
	if m.after, err = st.admin.metrics(); err != nil {
		return nil, err
	}
	st.acked += int64(m.cs.votes)

	// Output checks: the watch delivers the last write with non-decreasing
	// tasks, fresh reads reflect their write, and every session's final
	// estimates equal the in-process reference.
	if st.watch != nil {
		last := int64(0)
		if n := len(m.cs.hotAcks); n > 0 {
			last = m.cs.hotAcks[n-1].Tasks
		}
		delivered := st.watch.waitTasks(last, 10*time.Second)
		events, werr := st.watch.stop()
		st.watch = nil
		if werr != nil || !delivered {
			rep.tally.fail("watch: delivered final write %v, stream error %v", delivered, werr)
		} else {
			rep.tally.ok()
		}
		rep.check(nonDecreasing(events), "watch events' tasks decreased")
		var missed int
		m.lags, missed = watchLags(m.cs.hotAcks, events)
		rep.check(missed == 0, "%d hot-session writes never covered by a watch event", missed)
		m.events = len(events)
	}
	rep.check(m.cs.stale == 0, "%d fresh reads did not reflect the preceding write", m.cs.stale)
	got, ok := fetchServed(st.admin, &rep.tally, plan.Sessions)
	rep.check(ok, "reading final estimates failed")
	if ok {
		if d := compareServed("final estimates vs in-process reference", plan.Sessions, got, st.ref); d != "" {
			rep.check(false, "%s", d)
		}
	}
	if m.peak, err = procHWM(pid); err != nil {
		return nil, err
	}
	return m, nil
}

func runMonitor(cfg runCfg) (*report, error) {
	rep := &report{env: map[string]any{"client_gomaxprocs": monitorProcs, "server_gomaxprocs": monitorProcs}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(monitorProcs))
	rep.env["host.calib_ms"] = calibrate()

	// Each set-up starts its own server, and each of those servers runs the
	// measured phase; the figures pool the slices of all of them (see
	// runBulk).
	var (
		setupS, peaks                           []float64
		rate, cpuPerReq, ingest50, read50, ci50 []float64
		cs                                      cycleSamples
		lags                                    latencies
		wall                                    time.Duration
		events                                  int
		st                                      *monitorState
		m                                       *monSample
	)
	defer func() {
		if st != nil {
			st.teardown()
		}
	}()
	for k := 0; k < setupRepeats; k++ {
		if st != nil {
			st.teardown()
		}
		t0 := time.Now()
		var err error
		if st, err = setupMonitor(cfg, k, &rep.tally); err != nil {
			st = nil
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if m, err = measureMonitor(st, rep); err != nil {
			return nil, err
		}
		rate = append(rate, m.rate...)
		cpuPerReq = append(cpuPerReq, m.cpuPerReq...)
		ingest50 = append(ingest50, m.ingest50...)
		read50 = append(read50, m.read50...)
		ci50 = append(ci50, m.ci50...)
		cs.merge(m.cs)
		lags = append(lags, m.lags...)
		wall += m.wall
		events += m.events
		peaks = append(peaks, m.peak)
	}
	plan := st.plan
	before, after, peak := m.before, m.after, median(peaks)
	votesSent := cs.votes
	rep.env["watch.events"] = events

	ingestTail, ingestP, ingestN := cs.ingest.tail(99)
	readTail, readP, readN := cs.read.tail(99)
	rep.env["fsync.monitor"] = "never"
	rep.env["watch_min_interval"] = monWatchMinInterval.String()
	rep.env["ops.sessions"] = len(plan.Sessions)
	rep.env["ops.cycles"] = setupRepeats * len(plan.Cycles)
	rep.env["ops.requests"] = cs.reqs
	rep.env["ops.votes"] = votesSent
	rep.env["ops.hot_writes"] = len(cs.hotAcks)
	rep.env["setup_s.all"] = setupS
	rep.env["slices.votes_per_s"] = rate
	rep.env["slices.server_cpu_us_per_req"] = cpuPerReq
	rep.env["slices.ingest_p50_ms"] = ingest50
	sliceSamples(rep.env, "ingest_p50_ms", len(cs.ingest))
	samples(rep.env, "ingest_p99_ms", ingestP, ingestN)
	sliceSamples(rep.env, "read_p50_ms", len(cs.read))
	samples(rep.env, "read_p99_ms", readP, readN)
	sliceSamples(rep.env, "ci_p50_ms", len(cs.ci))
	samples(rep.env, "watch_lag_p50_ms", 50, len(lags))
	hotInterval := wall.Seconds() / float64(max(len(cs.hotAcks), 1)) * 1e3
	rep.env["watch.write_interval_ms"] = hotInterval

	if !cfg.Trace {
		rep.add("setup_s", median(setupS), "s")
		rep.add("peak_rss_mib", peak, "MiB")
		return rep, nil
	}

	// Scrape-based figures cover the last server's measured phase, so they
	// are taken against its own requests.
	d := after.delta(before)
	writes := float64(len(plan.Cycles))
	reads := float64(m.cs.reads)
	perKread := func(path string) float64 {
		return d.get("dqm_engine_estimate_seconds_count", "path", path) / reads * 1e3
	}
	gateMean, _ := d.histMean("dqm_http_request_seconds", "route", "gate")
	bootMean, _ := d.histMean("dqm_engine_bootstrap_seconds")
	rep.add("serve.gate_handler_us", gateMean*1e6, "us")
	rep.add("engine.bootstrap_ms", bootMean*1e3, "ms")
	rep.add("engine.estimate_full_per_kread", perKread("full"), "count")
	rep.add("engine.estimate_incremental_per_kread", perKread("incremental"), "count")
	rep.add("engine.estimate_cached_per_kread", perKread("cached"), "count")
	rep.add("gate.evals_per_write", d.get("dqm_gate_evaluations_total")/writes, "count")
	pub := max(d.get("dqm_hub_publishes_total"), 1)
	rep.add("hub.encodes_per_publish", d.get("dqm_hub_encodes_total")/pub, "count")
	rep.add("hub.skipped_ratio", d.get("dqm_hub_dropped_total")/pub, "count")
	// Demoted from end to end; see README.md.
	rep.add("monitor.votes_per_s", median(rate), "1/s")
	rep.add("monitor.ingest_p50_ms", median(ingest50), "ms")
	rep.add("monitor.ingest_p99_ms", ingestTail, "ms")
	rep.add("monitor.read_p50_ms", median(read50), "ms")
	rep.add("monitor.read_p99_ms", readTail, "ms")
	rep.add("monitor.server_cpu_us_per_req", median(cpuPerReq), "us")
	rep.add("monitor.ci_p50_ms", median(ci50), "ms")
	rep.add("monitor.watch_lag_p50_ms", lags.p50(), "ms")

	// Stage phase: write and fresh-read pairs only.
	sb, err := st.admin.metrics()
	if err != nil {
		return nil, err
	}
	var post, get latencies
	for _, r := range plan.Stage {
		id := plan.Sessions[r.Session].ID
		start := time.Now()
		if _, ok := st.cycle.postVotes(&rep.tally, id, "application/json", r); ok {
			post.add(time.Since(start))
			st.acked += int64(r.Votes)
		}
		start = time.Now()
		if _, ok := st.cycle.call(&rep.tally, "GET", "/v1/sessions/"+id+"/estimates", "", nil); ok {
			get.add(time.Since(start))
		}
	}
	sa, err := st.admin.metrics()
	if err != nil {
		return nil, err
	}
	sd := sa.delta(sb)
	votesH, _ := sd.histMean("dqm_http_request_seconds", "route", "votes")
	estH, _ := sd.histMean("dqm_http_request_seconds", "route", "estimates")
	postMean, getMean := mean(post)*1e3, mean(get)*1e3
	rep.add("serve.json_votes_handler_us", votesH*1e6, "us")
	rep.add("serve.estimates_handler_us", estH*1e6, "us")
	rep.add("serve.json_outside_handler_us", postMean-votesH*1e6, "us")

	// The journal is measured once the server is gone, so that it counts
	// what reached the data dir, as a restart would find it.
	st.srv.kill()
	journal, err := dirBytes(filepath.Join(st.dir, "data"))
	if err != nil {
		return nil, err
	}
	rep.add("monitor.journal_bytes_per_vote", float64(journal)/float64(st.acked), "B")

	runtime.GOMAXPROCS(cfg.Nproc)
	rep.env["trace_gomaxprocs"] = cfg.Nproc
	tr, err := traceMonitor(cfg, plan)
	if err != nil {
		return nil, err
	}
	s := tr.stats
	rep.add("engine.append_us", s["engine.append"].meanUs(), "us")
	rep.add("engine.estimates_us", s["engine.estimates"].meanUs(), "us")
	rep.add("engine.window_estimates_us", s["engine.window_estimates"].meanUs(), "us")
	rep.add("engine.switch_ci_ms", s["engine.switch_ci"].meanUs()/1e3, "ms")
	rep.add("estimator.estimate_all_us", s["estimator.estimate_all"].meanUs(), "us")
	rep.add("hub.payload_fresh_us", s["hub.payload"].meanUs(), "us")
	rep.add("hub.deliver_us", tr.extra["hub.deliver_us"], "us")
	rep.add("policy.evaluate_us", s["policy.evaluate"].meanUs(), "us")
	rep.notes = append(rep.notes,
		stageTable("JSON votes (monitor)", postMean, votesH*1e6, []stage{
			{"votelog", 0},
			{"wal", s["wal.journal_append"].perOpUs()},
			{"estimator", s["estimator.observe"].perOpUs()},
			{"engine self", s["engine.append"].selfPerOpUs()},
		}, s["engine.append"].perOpUs()),
		stageTable("fresh estimates (monitor)", getMean, estH*1e6, []stage{
			{"estimator", s["estimator.estimate_all"].perOpUs()},
			{"engine self", s["engine.estimates"].selfPerOpUs()},
			{"hub and JSON encode", s["hub.payload"].perOpUs()},
		}, s["engine.estimates"].perOpUs()+s["hub.payload"].perOpUs()))
	return rep, nil
}
