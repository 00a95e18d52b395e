package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dqm/internal/engine"
	"dqm/internal/estimator"
	"dqm/internal/hub"
	"dqm/internal/policy"
	"dqm/internal/votelog"
	"dqm/internal/wal"
	"dqm/internal/window"
)

// hubSession adapts an engine session to the hub, as dqm-serve does.
type hubSession struct{ s *engine.Session }

func (h hubSession) Version() uint64               { return h.s.Version() }
func (h hubSession) Pending() bool                 { return h.s.StagedVotes() > 0 }
func (h hubSession) Notify(ch chan<- struct{})     { h.s.AddNotifier(ch) }
func (h hubSession) StopNotify(ch chan<- struct{}) { h.s.RemoveNotifier(ch) }

// wirePayload is the all-time estimates payload in dqm-serve's wire shape:
// served plus the version, in the server's field order. The server omits
// extra, window and switch_ci when they are empty, as they are for the
// monitor's sessions. TestWirePayloadMatchesServer pins the shape against a
// payload a real server returns.
type wirePayload struct {
	served
	Version uint64 `json:"version"`
}

// encodeEstimates renders the all-time estimates payload, version read
// first, as dqm-serve's hub encoder does.
func encodeEstimates(hs hub.Session, _ hub.View) ([]byte, uint64, error) {
	s := hs.(hubSession).s
	v := s.Version()
	body, err := json.Marshal(wirePayload{servedOf(s.Estimates(), s.Tasks(), s.TotalVotes()), v})
	return body, v, err
}

// servedOf renders an engine session's estimates as the server serves them.
func servedOf(e estimator.Estimates, tasks, votes int64) served {
	var out served
	out.Nominal, out.Voting, out.Chao92, out.VChao92 = e.Nominal, e.Voting, e.Chao92, e.VChao92
	out.Switch.Total, out.Switch.XiPos, out.Switch.XiNeg = e.Switch.Total, e.Switch.XiPos, e.Switch.XiNeg
	out.Switch.RemainingSwitches = e.Switch.RemainingSwitches
	out.Switch.Trend = trendName(e.Switch.Trend == estimator.TrendUp, e.Switch.Trend == estimator.TrendDown)
	out.Remaining = remaining(e)
	out.Tasks, out.Votes = tasks, votes
	return out
}

// remaining is the SWITCH remaining-error estimate, floored at zero.
func remaining(e estimator.Estimates) float64 {
	return max(e.Switch.Total-e.Voting, 0)
}

// gateInputs snapshots what the monitor policy's rules read, as the server's
// gate source does: the all-time estimates and the decayed window.
func gateInputs(s *engine.Session) policy.Inputs {
	in := policy.Inputs{Version: s.Version()}
	e := s.Estimates()
	in.Remaining, in.SwitchTotal = remaining(e), e.Switch.Total
	in.Tasks, in.Votes = s.Tasks(), s.TotalVotes()
	if we, err := s.WindowEstimates(window.KindDecayed); err == nil {
		in.DriftRatio, in.HasDrift = policy.DriftRatio(remaining(we.Estimates), in.Remaining), true
	}
	return in
}

// versionAt is a session version and when it was seen.
type versionAt struct {
	V  uint64
	At time.Time
}

// traceMonitor replays the monitor op stream in process: sessions on a
// durable engine (fsync never, like the server), the hub with a subscriber
// on the watched session, and the policy evaluated after every write.
func traceMonitor(cfg runCfg, plan *monitorPlan) (*traceResult, error) {
	var deliver []float64
	spans, err := runTraced(func(on bool, dir string) ([]span, error) {
		spans, d, err := replayMonitor(plan, on, dir)
		if on {
			deliver = d
		}
		return spans, err
	}, cfg.Work)
	if err != nil {
		return nil, err
	}
	tr := &traceResult{stats: aggregate(spans), extra: map[string]float64{}}
	tr.extra["hub.deliver_us"] = median(deliver)
	return tr, nil
}

func replayMonitor(plan *monitorPlan, on bool, dir string) ([]span, []float64, error) {
	e, err := engine.Open(engine.Config{DataDir: filepath.Join(dir, "engine"), WAL: wal.Options{Fsync: wal.FsyncNever}})
	if err != nil {
		return nil, nil, err
	}
	defer e.Close()
	store, err := wal.OpenStore(filepath.Join(dir, "shadow"), wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		return nil, nil, err
	}
	defer store.Close()
	reps := make([]replica, len(plan.Sessions))
	byID := map[string]*engine.Session{}
	for i, s := range plan.Sessions {
		rp := &reps[i]
		if rp.sess, err = e.Create(s.ID, s.Items, engine.SessionConfig{Suite: suiteConfig(true), Window: windowConfig()}); err != nil {
			return nil, nil, err
		}
		byID[s.ID] = rp.sess
		if rp.journal, err = store.Create(wal.Meta{ID: s.ID, Items: s.Items}); err != nil {
			return nil, nil, err
		}
		rp.suite = estimator.NewSuite(s.Items, suiteConfig(true))
	}
	for _, r := range plan.Preload {
		rp := reps[r.Session]
		blocks, err := votelog.SplitBinaryTasks(r.Body)
		if err != nil {
			return nil, nil, err
		}
		for i, b := range blocks {
			if _, err := rp.sess.AppendColumns(b.Raw, true); err != nil {
				return nil, nil, err
			}
			if err := rp.journal.AppendColumns(b.Raw, true, -1); err != nil {
				return nil, nil, err
			}
			rp.suite.ObserveTask(plan.Sessions[r.Session].task(r.First + i))
		}
	}
	h := hub.New(hub.Config{
		Resolve: func(id string) (hub.Session, bool) {
			s, ok := byID[id]
			return hubSession{s}, ok
		},
		Encode: encodeEstimates,
		// No publish or delivery floor: in process the watched session is
		// written every few microseconds, so the server's floors (half of
		// and all of monWatchMinInterval) would hold events here, while over
		// HTTP its writes are milliseconds apart and the floors never do.
		Heartbeat: 15 * time.Second,
	})
	pol, err := policy.Parse([]byte(monitorPolicy))
	if err != nil {
		return nil, nil, err
	}
	hotID := plan.Sessions[0].ID
	sub, ok := h.Subscribe(hotID, hub.ViewAll, 0, 0)
	if !ok {
		return nil, nil, fmt.Errorf("hub subscribe %s failed", hotID)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var (
		mu        sync.Mutex
		delivered []versionAt
	)
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		for {
			ev, ok := sub.Next(ctx)
			if !ok {
				return
			}
			if !ev.Heartbeat {
				mu.Lock()
				delivered = append(delivered, versionAt{ev.Version, time.Now()})
				mu.Unlock()
			}
		}
	}()

	epoch := time.Now()
	warm := newRecorder(false, epoch, 0)
	rec := newRecorder(on, epoch, 0)
	var appended []versionAt
	var opErr error
	for i, r := range plan.Warm {
		if opErr = monitorOp(warm, i, plan, reps, h, pol, r, nil); opErr != nil {
			break
		}
	}
	for i, r := range plan.Cycles {
		if opErr != nil {
			break
		}
		opErr = monitorOp(rec, i, plan, reps, h, pol, r, &appended)
	}
	// Let the subscriber catch up with the last write, then stop it.
	last := reps[0].sess.Version()
	for deadline := time.Now().Add(10 * time.Second); opErr == nil && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		mu.Lock()
		n := len(delivered)
		caught := n > 0 && delivered[n-1].V >= last
		mu.Unlock()
		if caught {
			break
		}
	}
	cancel()
	<-subDone
	sub.Close()
	h.Drop(hotID)
	if opErr != nil {
		return nil, nil, opErr
	}
	sort.Slice(delivered, func(i, j int) bool { return delivered[i].V < delivered[j].V })
	var deliver []float64
	for _, a := range appended {
		k := sort.Search(len(delivered), func(i int) bool { return delivered[i].V >= a.V })
		if k < len(delivered) {
			deliver = append(deliver, float64(delivered[k].At.Sub(a.At))/1e3)
		}
	}
	return rec.spans, deliver, nil
}

// monitorOp replays one monitor cycle in process.
func monitorOp(rec *recorder, op int, plan *monitorPlan, reps []replica, h *hub.Hub, pol *policy.Policy, r request, appended *[]versionAt) error {
	rp := reps[r.Session]
	hot := r.Session == 0
	task := plan.Sessions[r.Session].task(r.First)
	root := rec.begin(op, 0, "cycle")
	defer rec.end(root)

	ea := rec.begin(op, root, "engine.append")
	err := rp.sess.Append(task, true)
	rec.end(ea)
	if err != nil {
		return err
	}
	if hot && appended != nil {
		*appended = append(*appended, versionAt{rp.sess.Version(), time.Now()})
	}
	wa := rec.begin(op, ea, "wal.journal_append")
	err = rp.journal.Append(task, true)
	rec.end(wa)
	rec.detach(wa)
	if err != nil {
		return err
	}
	eo := rec.begin(op, ea, "estimator.observe")
	rp.suite.ObserveTask(task)
	rec.end(eo)
	rec.detach(eo)

	// The watched session's subscriber may encode its frame concurrently,
	// so only the other sessions' reads are timed as fresh.
	if hot {
		rp.sess.Estimates()
		h.Payload(plan.Sessions[r.Session].ID, hub.ViewAll)
	} else {
		ee := rec.begin(op, root, "engine.estimates")
		rp.sess.Estimates()
		rec.end(ee)
		es := rec.begin(op, ee, "estimator.estimate_all")
		rp.suite.EstimateAll()
		rec.end(es)
		rec.detach(es)
		hp := rec.begin(op, root, "hub.payload")
		_, _, perr, ok := h.Payload(plan.Sessions[r.Session].ID, hub.ViewAll)
		rec.end(hp)
		if !ok || perr != nil {
			return fmt.Errorf("hub payload %s: %v", plan.Sessions[r.Session].ID, perr)
		}
	}
	ew := rec.begin(op, root, "engine.window_estimates")
	_, err = rp.sess.WindowEstimates(window.KindCurrent)
	rec.end(ew)
	if err != nil {
		return err
	}
	in := gateInputs(rp.sess)
	pe := rec.begin(op, root, "policy.evaluate")
	pol.Evaluate(in)
	rec.end(pe)
	if op%monCIEvery == monCIEvery-1 {
		ci := rec.begin(op, root, "engine.switch_ci")
		_, err = rp.sess.SwitchCI(monCIReplicates, 0.95)
		rec.end(ci)
		if err != nil {
			return err
		}
	}
	return nil
}
