package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dqm/internal/votelog"
)

// bulkRestarts is how many kill -9 and restart cycles follow the last
// server's ingest phase; boot_s is their median.
const bulkRestarts = 9

// bulkDurableWait is how long the check waits after the last acknowledged
// write before kill -9: three default -fsync-interval periods. Under -fsync
// batch an acknowledged frame is durable once a syncer pass has covered it,
// and passes run at least once per interval, so the restart check covers
// boot recovery, not the durability of acknowledged writes.
const bulkDurableWait = 300 * time.Millisecond

// setupRepeats is how many times each workload sets up; setup_s is their
// median. On the server workloads every set-up's server is then measured.
const setupRepeats = 3

// bulkState is one set-up bulk-dqmv server with its op stream.
type bulkState struct {
	plan    *bulkPlan
	dir     string
	addr    string
	flags   []string
	srv     *serverProc
	loaders [bulkLoaders]*client
	admin   *client
	acked   int64 // votes acknowledged so far
}

func (s *bulkState) teardown() {
	for _, c := range s.loaders {
		if c != nil {
			c.close()
		}
	}
	if s.admin != nil {
		s.admin.close()
	}
	if s.srv != nil {
		s.srv.kill()
	}
	os.RemoveAll(s.dir)
}

// setupBulk generates the op stream and its reference, starts a server on a
// fresh data dir, creates the sessions and runs the warm-up requests.
func setupBulk(cfg runCfg, k int, t *tally) (*bulkState, error) {
	st := &bulkState{plan: planBulk(cfg.Seed, cfg.Seconds), dir: filepath.Join(cfg.Work, fmt.Sprintf("bulk-%d", k))}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	st.addr = addr
	st.flags = []string{"-data-dir", st.dir, "-fsync", "batch"}
	if st.srv, _, err = startServer(cfg.Bin, addr, cfg.Nproc, st.flags...); err != nil {
		return nil, err
	}
	st.admin = newClient(addr)
	for _, s := range st.plan.Sessions {
		st.admin.createSession(t, s.ID, s.Items, "")
	}
	var wg sync.WaitGroup
	var tl [bulkLoaders]tally
	for l := range st.loaders {
		st.loaders[l] = newClient(addr)
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for _, r := range st.plan.Warm[l] {
				st.loaders[l].postVotes(&tl[l], st.plan.Sessions[r.Session].ID, votelog.ContentTypeDQMV, r)
			}
		}(l)
	}
	wg.Wait()
	for l := range tl {
		t.add(tl[l])
		for _, r := range st.plan.Warm[l] {
			st.acked += int64(r.Votes)
		}
	}
	return st, nil
}

// bulkSample is what one server process's measured phase yields.
type bulkSample struct {
	lat                       latencies
	reqs, votes               int
	rate, cpuPerReq, ingest50 []float64 // per slice
	before, after             scrape
	peak                      float64
}

// measureBulk runs the op stream's measured requests against st's server in
// slices, both loaders meeting at the end of each; see measuredRounds.
func measureBulk(st *bulkState, t *tally) (*bulkSample, error) {
	plan := st.plan
	m := &bulkSample{}
	var err error
	if m.before, err = st.admin.metrics(); err != nil {
		return nil, err
	}
	pid := st.srv.cmd.Process.Pid
	for k := 0; k < measuredRounds; k++ {
		var (
			wg   sync.WaitGroup
			lats [bulkLoaders]latencies
			tl   [bulkLoaders]tally
		)
		c0, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for l := range st.loaders {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				c := st.loaders[l]
				lo, hi := slice(len(plan.Loaders[l]), measuredRounds, k)
				for _, r := range plan.Loaders[l][lo:hi] {
					start := time.Now()
					if _, ok := c.postVotes(&tl[l], plan.Sessions[r.Session].ID, votelog.ContentTypeDQMV, r); ok {
						lats[l].add(time.Since(start))
					}
				}
			}(l)
		}
		wg.Wait()
		w := time.Since(t0)
		c1, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		var rl latencies
		reqs, votes := 0, 0
		for l := range st.loaders {
			t.add(tl[l])
			rl = append(rl, lats[l]...)
			lo, hi := slice(len(plan.Loaders[l]), measuredRounds, k)
			for _, r := range plan.Loaders[l][lo:hi] {
				reqs++
				votes += r.Votes
			}
		}
		m.rate = append(m.rate, float64(votes)/w.Seconds())
		m.cpuPerReq = append(m.cpuPerReq, float64(c1-c0)/float64(time.Microsecond)/float64(reqs))
		m.ingest50 = append(m.ingest50, rl.p50())
		m.lat = append(m.lat, rl...)
		m.reqs += reqs
		m.votes += votes
	}
	if m.after, err = st.admin.metrics(); err != nil {
		return nil, err
	}
	st.acked += int64(m.votes)
	if m.peak, err = procHWM(pid); err != nil {
		return nil, err
	}
	return m, nil
}

func runBulk(cfg runCfg) (*report, error) {
	rep := &report{env: map[string]any{}}
	rep.env["host.calib_ms"] = calibrate()

	// Each set-up starts its own server, and each of those servers runs the
	// measured phase: a process's scheduling and memory layout set its speed
	// for its whole life, so the figures pool the slices of all of them.
	var (
		setupS, peaks             []float64
		rate, cpuPerReq, ingest50 []float64
		lat                       latencies
		reqs, votesSent           int
		st                        *bulkState
		m                         *bulkSample
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
		if st, err = setupBulk(cfg, k, &rep.tally); err != nil {
			st = nil
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if m, err = measureBulk(st, &rep.tally); err != nil {
			return nil, err
		}
		rate = append(rate, m.rate...)
		cpuPerReq = append(cpuPerReq, m.cpuPerReq...)
		ingest50 = append(ingest50, m.ingest50...)
		lat = append(lat, m.lat...)
		reqs += m.reqs
		votesSent += m.votes
		peaks = append(peaks, m.peak)
		if k < setupRepeats-1 {
			got, ok := fetchServed(st.admin, &rep.tally, st.plan.Sessions)
			rep.check(ok, "reading final estimates of server %d failed", k+1)
			if ok {
				if d := compareServed(fmt.Sprintf("server %d final estimates vs in-process reference", k+1), st.plan.Sessions, got, st.plan.Ref); d != "" {
					rep.check(false, "%s", d)
				}
			}
		}
	}
	plan := st.plan
	before, after, peak := m.before, m.after, median(peaks)

	// Output checks: the served estimates equal the in-process reference,
	// and every restart after kill -9 serves exactly the pre-kill estimates
	// once a group-commit pass has covered the last acknowledged write.
	preKill, ok := fetchServed(st.admin, &rep.tally, plan.Sessions)
	rep.check(ok, "reading final estimates failed")
	if ok {
		if d := compareServed("final estimates vs in-process reference", plan.Sessions, preKill, plan.Ref); d != "" {
			rep.check(false, "%s", d)
		}
	}
	time.Sleep(bulkDurableWait)
	var boots, recoveries []float64
	for i := 0; i < bulkRestarts; i++ {
		st.srv.kill()
		st.admin.close()
		srv, boot, err := startServer(cfg.Bin, st.addr, cfg.Nproc, st.flags...)
		if err != nil {
			rep.tally.fail("restart %d: %v", i+1, err)
			st.srv = nil
			break
		}
		rep.tally.ok()
		st.srv = srv
		st.admin = newClient(st.addr)
		boots = append(boots, boot.Seconds())
		if rec, ok := healthRecovery(st.admin, &rep.tally); ok {
			recoveries = append(recoveries, rec)
		}
		got, ok := fetchServed(st.admin, &rep.tally, plan.Sessions)
		rep.check(ok, "reading estimates after restart %d failed", i+1)
		if ok {
			if d := compareServed(fmt.Sprintf("restart %d vs pre-kill estimates", i+1), plan.Sessions, got, preKill); d != "" {
				rep.check(false, "%s", d)
			}
		}
	}
	if st.srv != nil {
		st.srv.kill()
		st.srv = nil
	}

	ingestTail, tailP, tailN := lat.tail(99)
	rep.env["fsync.bulk-dqmv"] = "batch (default -fsync-interval); kill -9 after a covering pass"
	rep.env["server_gomaxprocs"] = cfg.Nproc
	rep.env["client_gomaxprocs"] = cfg.Nproc
	rep.env["ops.sessions"] = len(plan.Sessions)
	rep.env["ops.requests"] = reqs
	rep.env["ops.votes"] = votesSent
	rep.env["ops.restarts"] = len(boots)
	rep.env["setup_s.all"] = setupS
	rep.env["slices.votes_per_s"] = rate
	rep.env["slices.server_cpu_us_per_req"] = cpuPerReq
	rep.env["slices.ingest_p50_ms"] = ingest50
	sliceSamples(rep.env, "ingest_p50_ms", len(lat))
	samples(rep.env, "ingest_p99_ms", tailP, tailN)
	samples(rep.env, "boot_s", 50, len(boots))

	if !cfg.Trace {
		rep.add("setup_s", median(setupS), "s")
		rep.add("peak_rss_mib", peak, "MiB")
		return rep, nil
	}

	journal, err := dirBytes(st.dir)
	if err != nil {
		return nil, err
	}
	// Scrape-based figures cover the last server's measured phase, so they
	// are taken against its own requests.
	d := after.delta(before)
	handler, _ := d.histMean("dqm_http_request_seconds", "route", "votes")
	clientMean := mean(m.lat) * 1e3
	fsyncMean, _ := d.histMean("dqm_wal_fsync_seconds")
	perPass, _ := d.histMean("dqm_wal_group_commit_sessions")
	rep.add("serve.dqmv_votes_handler_us", handler*1e6, "us")
	rep.add("serve.dqmv_outside_handler_us", clientMean-handler*1e6, "us")
	rep.add("wal.fsync_us", fsyncMean*1e6, "us")
	rep.add("wal.fsyncs_per_kvote", d.get("dqm_wal_fsyncs_total")/float64(m.votes)*1e3, "count")
	rep.add("wal.journals_per_pass", perPass, "count")
	rep.add("wal.compactions", d.get("dqm_wal_compactions_total"), "count")
	rep.add("engine.recovery_s", median(recoveries), "s")
	// Demoted from end to end; see README.md.
	rep.add("bulk-dqmv.votes_per_s", median(rate), "1/s")
	rep.add("bulk-dqmv.ingest_p50_ms", median(ingest50), "ms")
	rep.add("bulk-dqmv.ingest_p99_ms", ingestTail, "ms")
	rep.add("bulk-dqmv.boot_s", median(boots), "s")
	rep.add("bulk-dqmv.server_cpu_us_per_req", median(cpuPerReq), "us")
	rep.add("bulk-dqmv.journal_bytes_per_vote", float64(journal)/float64(st.acked), "B")

	copyDirPath := st.dir + "-copy"
	if err := copyDir(st.dir, copyDirPath); err != nil {
		return nil, err
	}
	defer os.RemoveAll(copyDirPath)
	tr, err := traceBulk(cfg, plan, copyDirPath)
	if err != nil {
		return nil, err
	}
	rep.add("votelog.split_us", tr.stats["votelog.split"].perOpUs(), "us")
	rep.add("wal.journal_append_us", tr.stats["wal.journal_append"].meanUs(), "us")
	rep.add("wal.commit_wait_us", tr.stats["wal.commit_wait"].meanUs(), "us")
	rep.add("engine.append_columns_us", tr.stats["engine.append_columns"].meanUs(), "us")
	rep.add("engine.append_columns_self_us", float64(tr.stats["engine.append_columns"].Self)/float64(tr.stats["engine.append_columns"].N)/1e3, "us")
	rep.add("engine.open_s", tr.openS, "s")
	rep.add("estimator.observe_ns_per_vote", float64(tr.stats["estimator.observe"].Total)/float64(tr.votes), "ns")
	rep.notes = append(rep.notes, stageTable("DQMV votes (bulk-dqmv)", clientMean, handler*1e6, []stage{
		{"votelog", tr.stats["votelog.split"].perOpUs()},
		{"wal", tr.stats["wal.journal_append"].perOpUs()},
		{"estimator", tr.stats["estimator.observe"].perOpUs()},
		{"engine self", tr.stats["engine.append_columns"].selfPerOpUs()},
	}, tr.stats["votelog.split"].perOpUs()+tr.stats["engine.append_columns"].perOpUs()))
	return rep, nil
}

// healthRecovery reads the boot-recovery wall time the server reports.
func healthRecovery(c *client, t *tally) (float64, bool) {
	b, ok := c.call(t, "GET", "/healthz", "", nil)
	if !ok {
		return 0, false
	}
	var h struct {
		RecoverySeconds float64 `json:"recovery_seconds"`
	}
	if err := json.Unmarshal(b, &h); err != nil {
		return 0, false
	}
	return h.RecoverySeconds, true
}
