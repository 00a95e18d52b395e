package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dqm/internal/engine"
	"dqm/internal/estimator"
	"dqm/internal/switchstat"
	"dqm/internal/votelog"
	"dqm/internal/votes"
	"dqm/internal/wal"
	"dqm/internal/window"
)

// The traced run replays a workload's op stream in process, calling each
// layer's public functions from here and timing every call as a span. Work
// the engine does inside one call (journal append, commit wait, estimator
// observe) is timed by replaying it on standalone copies of that layer's
// state fed the same inputs; those spans are detached children of the engine
// span, which gives the engine's self time.

// traceResult is what one traced replay yields.
type traceResult struct {
	stats map[string]*spanStats
	votes int
	openS float64
	extra map[string]float64
}

// suiteConfig mirrors dqm.Defaults (vChao92 shift 1, tie-flip switches),
// with switch ledgers retained when the session tracks confidence.
func suiteConfig(trackConfidence bool) estimator.SuiteConfig {
	return estimator.SuiteConfig{
		VChao92: estimator.VChao92Config{Shift: 1},
		Switch:  estimator.SwitchConfig{Policy: switchstat.PolicyTieFlip, RetainLedgers: trackConfidence},
	}
}

// traceWall sums, over every traced replay of the run, the wall time with
// spans on and that of the untraced replay run after it; trace.overhead_pct
// compares the two.
var traceWall [2]time.Duration

// traceOverheadPct is the cost of recording spans over the run's traced
// replays, in percent of their untraced time.
func traceOverheadPct() float64 {
	return (traceWall[0].Seconds() - traceWall[1].Seconds()) / traceWall[1].Seconds() * 100
}

// runTraced runs replay three times: a warm-up with spans off, then spans
// on, then spans off again. It returns the traced run's spans and adds the
// last two runs' wall times to traceWall.
func runTraced(replay func(on bool, dir string) ([]span, error), work string) ([]span, error) {
	var spans []span
	var wall [3]time.Duration
	for i, traced := range []bool{false, true, false} {
		t0 := time.Now()
		got, err := replay(traced, filepath.Join(work, fmt.Sprintf("trace-%d", i)))
		if err != nil {
			return nil, err
		}
		wall[i] = time.Since(t0)
		if traced {
			spans = got
		}
	}
	traceWall[0] += wall[1]
	traceWall[1] += wall[2]
	return spans, nil
}

// traceBulk replays the bulk-dqmv op stream against a durable in-process
// engine (fsync batch, like the server), two loader goroutines as in the
// untraced run, and times engine.Open over a copy of the run's data dir.
func traceBulk(cfg runCfg, plan *bulkPlan, dataCopy string) (*traceResult, error) {
	t0 := time.Now()
	e, err := engine.Open(engine.Config{DataDir: dataCopy, WAL: wal.Options{Fsync: wal.FsyncBatch}})
	if err != nil {
		return nil, fmt.Errorf("engine.Open over the run's data dir: %w", err)
	}
	openS := time.Since(t0).Seconds()
	if err := e.Close(); err != nil {
		return nil, err
	}
	spans, err := runTraced(func(on bool, dir string) ([]span, error) {
		return replayBulk(plan, on, dir)
	}, cfg.Work)
	if err != nil {
		return nil, err
	}
	tr := &traceResult{stats: aggregate(spans), openS: openS}
	for l := range plan.Loaders {
		for _, r := range plan.Loaders[l] {
			tr.votes += r.Votes
		}
	}
	return tr, nil
}

// replica is one session's in-process state for a traced replay: the engine
// session plus the standalone journal and suite its layers are timed on.
type replica struct {
	sess    *engine.Session
	journal *wal.Journal
	suite   *estimator.Suite
}

func replayBulk(plan *bulkPlan, on bool, dir string) ([]span, error) {
	e, err := engine.Open(engine.Config{DataDir: filepath.Join(dir, "engine"), WAL: wal.Options{Fsync: wal.FsyncBatch}})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	// The standalone store never syncs on a timer; wal.commit_wait asks its
	// syncer for a pass explicitly, as a committer under fsync always does.
	store, err := wal.OpenStore(filepath.Join(dir, "shadow"), wal.Options{Fsync: wal.FsyncBatch, BatchInterval: time.Hour})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	reps := make([]replica, len(plan.Sessions))
	for i, s := range plan.Sessions {
		if reps[i].sess, err = e.Create(s.ID, s.Items, engine.SessionConfig{Suite: suiteConfig(false)}); err != nil {
			return nil, err
		}
		if reps[i].journal, err = store.Create(wal.Meta{ID: s.ID, Items: s.Items}); err != nil {
			return nil, err
		}
		reps[i].suite = estimator.NewSuite(s.Items, suiteConfig(false))
	}
	// Pass 1 makes the calls the votes handler makes; passes 2 and 3 feed
	// the same blocks to the standalone journal, then the standalone suite,
	// charging each to the engine span of its block. Running each copy in a
	// pass of its own keeps it out of the other calls' caches. Both passes run the two
	// loaders concurrently, as the server run does, warm-up requests first.
	epoch := time.Now()
	var recs [bulkLoaders]*recorder
	var engineSpans [bulkLoaders][][]int
	err = forLoaders(func(l int) error {
		warm := newRecorder(false, epoch, 0)
		for i, r := range plan.Warm[l] {
			if _, err := bulkEngineOp(warm, i, reps[r.Session], r); err != nil {
				return err
			}
		}
		recs[l] = newRecorder(on, epoch, (l+1)<<40)
		for i, r := range plan.Loaders[l] {
			ids, err := bulkEngineOp(recs[l], l<<30|i, reps[r.Session], r)
			if err != nil {
				return err
			}
			engineSpans[l] = append(engineSpans[l], ids)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, layer := range []string{"wal", "estimator"} {
		err = forLoaders(func(l int) error {
			warm := newRecorder(false, epoch, 0)
			for i, r := range plan.Warm[l] {
				if err := bulkLayerOp(warm, layer, i, reps[r.Session], r, nil, store); err != nil {
					return err
				}
			}
			for i, r := range plan.Loaders[l] {
				if err := bulkLayerOp(recs[l], layer, l<<30|i, reps[r.Session], r, engineSpans[l][i], store); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var all []span
	for _, r := range recs {
		all = append(all, r.spans...)
	}
	return all, nil
}

// forLoaders runs f for every loader concurrently and returns the first
// error.
func forLoaders(f func(l int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, bulkLoaders)
	for l := 0; l < bulkLoaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			errs[l] = f(l)
		}(l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// bulkEngineOp replays one DQMV request as the votes handler does: the split,
// then one engine append per task block. It returns the engine spans' IDs.
func bulkEngineOp(rec *recorder, op int, rp replica, r request) ([]int, error) {
	root := rec.begin(op, 0, "serve.dqmv")
	defer rec.end(root)
	sp := rec.begin(op, root, "votelog.split")
	blocks, err := votelog.SplitBinaryTasks(r.Body)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	if len(blocks) != r.N {
		return nil, fmt.Errorf("split %d tasks, want %d", len(blocks), r.N)
	}
	ids := make([]int, 0, len(blocks))
	for i, b := range blocks {
		endTask := i+1 == len(blocks) || blocks[i+1].Task != b.Task
		es := rec.begin(op, root, "engine.append_columns")
		_, err := rp.sess.AppendColumns(b.Raw, endTask)
		rec.end(es)
		if err != nil {
			return nil, err
		}
		ids = append(ids, es)
	}
	return ids, nil
}

// bulkLayerOp feeds one request's blocks to the standalone journal ("wal")
// or suite ("estimator"), as detached children of the engine spans in
// parents.
func bulkLayerOp(rec *recorder, layer string, op int, rp replica, r request, parents []int, store *wal.Store) error {
	blocks, err := votelog.SplitBinaryTasks(r.Body)
	if err != nil {
		return err
	}
	var task []votes.Vote
	for i, b := range blocks {
		parent := 0
		if parents != nil {
			parent = parents[i]
		}
		endTask := i+1 == len(blocks) || blocks[i+1].Task != b.Task
		if layer == "estimator" {
			if task, err = decodeTask(b.Raw, task[:0]); err != nil {
				return err
			}
			ob := rec.begin(op, parent, "estimator.observe")
			rp.suite.ObserveTask(task)
			rec.end(ob)
			rec.detach(ob)
			continue
		}
		ws := rec.begin(op, parent, "wal.journal_append")
		err = rp.journal.AppendColumns(b.Raw, endTask, -1)
		rec.end(ws)
		rec.detach(ws)
		if err != nil {
			return err
		}
		// What a commit under -fsync always would wait for: a demand
		// group-commit pass that fsyncs this journal. The server runs
		// -fsync batch, so this is a root span, not part of the engine's
		// time; it is sampled on each request's first block.
		if i == 0 {
			cs := rec.begin(op, 0, "wal.commit_wait")
			err = store.Syncer().Commit(rp.journal)
			rec.end(cs)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// decodeTask decodes one task block's raw vote records into dst.
func decodeTask(raw []byte, dst []votes.Vote) ([]votes.Vote, error) {
	var cols votelog.VoteColumns
	if err := cols.Decode(raw); err != nil {
		return nil, err
	}
	for i := range cols.Item {
		label := votes.Clean
		if cols.Dirty[i] {
			label = votes.Dirty
		}
		dst = append(dst, votes.Vote{Item: int(cols.Item[i]), Worker: int(cols.Worker[i]), Label: label})
	}
	return dst, nil
}

// stage is one row of a per-route stage table, in microseconds per request.
type stage struct {
	Name string
	Us   float64
}

// stageTable renders where one route's client-measured mean request time
// goes. outside-handler is the client mean minus the server's handler mean
// (net/http, loopback and the client); the in-handler stages come from the
// traced replay and sum to inProcUs; dqm-serve self is the remainder of the
// handler mean, so the rows sum to the client mean by construction.
func stageTable(title string, clientUs, handlerUs float64, stages []stage, inProcUs float64) string {
	rows := append([]stage{{"outside-handler", clientUs - handlerUs}}, stages...)
	rows = append(rows, stage{"dqm-serve self (remainder)", handlerUs - inProcUs})
	var b strings.Builder
	fmt.Fprintf(&b, "stage table: %s, mean us per request\n", title)
	sum := 0.0
	for _, r := range rows {
		sum += r.Us
		fmt.Fprintf(&b, "  %-28s %10.2f  %5.1f%%\n", r.Name, r.Us, r.Us/clientUs*100)
	}
	fmt.Fprintf(&b, "  %-28s %10.2f  (client-measured mean %.2f)", "sum", sum, clientUs)
	return b.String()
}

// windowConfig is the monitor sessions' window (matching
// monitorSessionConfig).
func windowConfig() *window.Config {
	return &window.Config{Size: monWindowSize, Stride: monWindowStride, DecayAlpha: monDecayAlpha}
}
