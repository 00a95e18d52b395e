package main

import (
	"bytes"
	"fmt"
	"time"

	"dqm"
	"dqm/internal/crowd"
	"dqm/internal/votelog"
	"dqm/internal/votes"
	"dqm/internal/xrand"
)

// The op streams below are pure functions of (seed, run size): the server
// only ever sees the requests generated here, and every run of one seed and
// size ends in the same state.

const itemsPerTask = 10

// crowdProfile is the worker population of every generated session: both
// false positives and false negatives in fair amounts, with per-worker
// spread (the paper's address deployment, §6.1.3).
var crowdProfile = crowd.Profile{FPRate: 0.04, FNRate: 0.2, Jitter: 0.25}

// sessionSpec is one generated session: its id, population, and the full
// task stream it receives over the run, in order.
type sessionSpec struct {
	ID    string
	Items int
	// Tasks holds every task's votes; task k is Votes[Offs[k]:Offs[k+1]].
	Votes []votes.Vote
	Offs  []int
}

func (s *sessionSpec) numTasks() int { return len(s.Offs) - 1 }

func (s *sessionSpec) task(k int) []votes.Vote { return s.Votes[s.Offs[k]:s.Offs[k+1]] }

// newTaskStream returns the seeded crowd simulator behind session id: a
// planted population of items with a 10% error rate.
func newTaskStream(seed uint64, id string, items int) *crowd.Simulator {
	root := xrand.New(seed).SplitNamed(id)
	truthRNG := root.SplitNamed("truth")
	dirty := make([]bool, items)
	for _, i := range truthRNG.SampleWithoutReplacement(items, items/10) {
		dirty[i] = true
	}
	return crowd.NewSimulator(crowd.Config{
		Truth:        func(i int) bool { return dirty[i] },
		N:            items,
		Profile:      crowdProfile,
		ItemsPerTask: itemsPerTask,
		PoolSize:     64,
		Seed:         root.SplitNamed("crowd").Uint64(),
	})
}

// genSession draws and keeps a session's first tasks.
func genSession(seed uint64, id string, items, tasks int) *sessionSpec {
	sim := newTaskStream(seed, id, items)
	s := &sessionSpec{ID: id, Items: items, Offs: make([]int, 1, tasks+1)}
	s.Votes = make([]votes.Vote, 0, tasks*itemsPerTask)
	for k := 0; k < tasks; k++ {
		s.Votes = sim.AppendTask(s.Votes)
		s.Offs = append(s.Offs, len(s.Votes))
	}
	return s
}

// request is one POST of votes: tasks [First, First+N) of session Session.
type request struct {
	Session int
	First   int
	N       int
	Votes   int
	// Body is the encoded request: a DQMV vote log (one task id per task)
	// or a JSON single-task body, depending on the workload.
	Body []byte
}

// dqmvBody encodes tasks [first, first+n) of s as a binary DQMV vote log with
// one task id per task, so the server marks a boundary after each.
func dqmvBody(s *sessionSpec, first, n int) ([]byte, int) {
	tasks := make([][]votes.Vote, n)
	for k := range tasks {
		tasks[k] = s.task(first + k)
	}
	return encodeDQMV(first, tasks), len(s.Votes[s.Offs[first]:s.Offs[first+n]])
}

// encodeDQMV encodes tasks as a DQMV vote log, task k under id first+k.
func encodeDQMV(first int, tasks [][]votes.Vote) []byte {
	var entries []votelog.Entry
	for k, t := range tasks {
		for _, v := range t {
			entries = append(entries, votelog.Entry{Task: first + k, Item: v.Item, Worker: v.Worker, Dirty: v.Label == votes.Dirty})
		}
	}
	var buf bytes.Buffer
	if err := votelog.WriteBinary(&buf, entries); err != nil {
		panic(fmt.Sprintf("perfbench: encoding generated votes: %v", err))
	}
	return buf.Bytes()
}

// jsonTaskBody encodes one task as the JSON single-task body
// {"votes":[...],"end_task":true}.
func jsonTaskBody(task []votes.Vote) []byte {
	b := make([]byte, 0, 32+40*len(task))
	b = append(b, `{"votes":[`...)
	for i, v := range task {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"item":%d,"worker":%d,"dirty":%t}`, v.Item, v.Worker, v.Label == votes.Dirty)
	}
	return append(b, `],"end_task":true}`...)
}

// Bulk workload shape.
const (
	bulkSessions      = 32
	bulkItems         = 2000
	bulkTasksPerReq   = 20
	bulkLoaders       = 2
	bulkWarmSessions  = 2
	bulkWarmReqs      = 16 // per warm session
	bulkReqsPerSecond = 1600
)

// bulkPlan is the bulk-dqmv op stream: per-loader request sequences over
// the measured sessions, plus the warm-up requests on separate sessions.
// Sessions hold no votes (the stream is large); Ref holds each session's
// reference estimates after all of its requests.
type bulkPlan struct {
	Sessions []*sessionSpec // measured sessions, then warm-up sessions
	Ref      []served
	Loaders  [bulkLoaders][]request
	Warm     [bulkLoaders][]request
}

// planBulk builds the bulk-dqmv op stream and its in-process reference.
// Loader l owns half of the measured sessions and sends its requests
// round-robin over them; each request carries the session's next
// bulkTasksPerReq tasks.
func planBulk(seed uint64, seconds int) *bulkPlan {
	perSess := max(bulkReqsPerSecond*seconds/bulkSessions, 1)
	p := &bulkPlan{}
	own := bulkSessions / bulkLoaders
	reqs := make([][]request, bulkSessions+bulkWarmSessions)
	for i := 0; i < bulkSessions+bulkWarmSessions; i++ {
		id, n := fmt.Sprintf("bulk-%02d", i), perSess
		if i >= bulkSessions {
			id, n = fmt.Sprintf("warm-%02d", i-bulkSessions), bulkWarmReqs
		}
		s := &sessionSpec{ID: id, Items: bulkItems}
		p.Sessions = append(p.Sessions, s)
		sim := newTaskStream(seed, id, bulkItems)
		ref := dqm.NewRecorder(bulkItems, dqm.Defaults())
		buf := make([]votes.Vote, 0, bulkTasksPerReq*itemsPerTask)
		tasks := make([][]votes.Vote, bulkTasksPerReq)
		for r := 0; r < n; r++ {
			buf = buf[:0]
			offs := make([]int, 0, bulkTasksPerReq+1)
			for range tasks {
				offs = append(offs, len(buf))
				buf = sim.AppendTask(buf)
			}
			offs = append(offs, len(buf))
			for k := range tasks {
				tasks[k] = buf[offs[k]:offs[k+1]]
				feedReference(ref, tasks[k])
			}
			reqs[i] = append(reqs[i], request{Session: i, First: r * bulkTasksPerReq, N: bulkTasksPerReq, Votes: len(buf),
				Body: encodeDQMV(r*bulkTasksPerReq, tasks)})
		}
		p.Ref = append(p.Ref, recorderServed(ref))
	}
	for l := 0; l < bulkLoaders; l++ {
		for r := 0; r < perSess; r++ {
			for j := 0; j < own; j++ {
				p.Loaders[l] = append(p.Loaders[l], reqs[l*own+j][r])
			}
		}
		p.Warm[l] = reqs[bulkSessions+l]
	}
	return p
}

// Monitor workload shape.
const (
	monSessions         = 256
	monItems            = 300
	monPreloadTasks     = 60
	monWindowSize       = 40
	monWindowStride     = 20
	monDecayAlpha       = 0.3
	monHotEvery         = 8  // every k-th cycle writes the watched session
	monCIEvery          = 50 // every N-th cycle also reads a bootstrap CI
	monCIReplicates     = 200
	monCyclesPerSecond  = 1200
	monWatchMinInterval = 100 * time.Microsecond
)

// monitorSessionConfig is the session config every monitor session is
// created with (the JSON body's "config"); monitorDQMConfig is the same for
// the library.
var monitorSessionConfig = fmt.Sprintf(`{"track_confidence":true,"window":{"size":%d,"stride":%d,"decay_alpha":%g}}`,
	monWindowSize, monWindowStride, monDecayAlpha)

// monitorPolicy is the -policy-file gate: a remaining-errors quarantine rule
// and a drift-ratio warning, armed after 20 tasks. It has no ci_upper rule,
// so gating never runs a bootstrap.
const monitorPolicy = `{"rules":[` +
	`{"name":"remaining-errors","metric":"remaining","op":">","value":25,"severity":"critical"},` +
	`{"name":"recent-drift","metric":"drift_ratio","op":">","value":1.5,"severity":"warning"}` +
	`],"min_tasks":20}`

// monitorPlan is the monitor op stream. Every session is preloaded with one
// DQMV request; then each cycle writes one JSON task. Session 0 is the
// watched ("hot") session and takes every monHotEvery-th cycle; the other
// cycles go round-robin over the rest. Warm cycles run before timing, and
// the stage cycles only in the traced run, after the output checks.
type monitorPlan struct {
	Sessions []*sessionSpec
	Preload  []request
	Warm     []request
	Cycles   []request
	Stage    []request
	// measuredTasks is each session's task count after the measured cycles,
	// which the output check compares at.
	measuredTasks []int
}

func planMonitor(seed uint64, seconds, stage int) *monitorPlan {
	rr := 0
	assign := func(c int, hot bool) int {
		if hot && c%monHotEvery == 0 {
			return 0
		}
		s := 1 + rr%(monSessions-1)
		rr++
		return s
	}
	var warmIdx, cycIdx, stageIdx []int
	for c := 0; c < monSessions; c++ {
		warmIdx = append(warmIdx, assign(c, true))
	}
	for c := 0; c < monCyclesPerSecond*seconds; c++ {
		cycIdx = append(cycIdx, assign(c, true))
	}
	for c := 0; c < stage; c++ {
		stageIdx = append(stageIdx, assign(c, false))
	}
	perSess := make([]int, monSessions)
	for _, list := range [][]int{warmIdx, cycIdx, stageIdx} {
		for _, s := range list {
			perSess[s]++
		}
	}
	p := &monitorPlan{}
	for i := 0; i < monSessions; i++ {
		p.Sessions = append(p.Sessions, genSession(seed, fmt.Sprintf("mon-%03d", i), monItems, monPreloadTasks+perSess[i]))
		body, n := dqmvBody(p.Sessions[i], 0, monPreloadTasks)
		p.Preload = append(p.Preload, request{Session: i, First: 0, N: monPreloadTasks, Votes: n, Body: body})
	}
	next := make([]int, monSessions)
	for i := range next {
		next[i] = monPreloadTasks
	}
	take := func(idx []int) []request {
		var out []request
		for _, s := range idx {
			k := next[s]
			next[s]++
			t := p.Sessions[s].task(k)
			out = append(out, request{Session: s, First: k, N: 1, Votes: len(t), Body: jsonTaskBody(t)})
		}
		return out
	}
	p.Warm = take(warmIdx)
	p.Cycles = take(cycIdx)
	p.measuredTasks = append([]int(nil), next...)
	p.Stage = take(stageIdx)
	return p
}
