// Command dqm-loadgen is the deterministic workload driver behind the repo's
// performance trajectory: it drives a dqm-serve target (or the in-process
// engine) with a reproducible mix of vote-ingest, estimate-poll,
// windowed-read and watch-subscribe traffic, and writes a machine-readable
// BENCH_loadgen.json (throughput, p50/p99 latency, allocations) that CI
// parses and gates on.
//
// Usage:
//
//	dqm-loadgen [-target http://host:8334] [-scenario mixed] [-sessions 4]
//	            [-workers 8] [-duration 5s] [-items 5000] [-batch 20]
//	            [-rate 0] [-seed 1] [-watchers 0] [-data-dir DIR]
//	            [-recovery-parallelism 0] [-out BENCH_loadgen.json]
//
// Without -target the engine is driven in-process (the engine-layer ceiling;
// add -data-dir for the journaled variant); with -target requests go over
// HTTP to a running dqm-serve. -rate sets an open-loop offered load in ops/s
// across all workers (0 = closed loop: every worker issues its next op as
// soon as the previous one returns).
//
// Scenarios (-scenario): ingest (100% JSON vote ingest), binary-ingest (100%
// ingest in the binary DQMV encoding — the columnar fast path), binary-mixed
// (70/30 binary-ingest/poll), poll (10/90 ingest/estimate-poll), mixed
// (70/30), watch (90/10 plus -watchers SSE subscribers), watch-storm (100%
// ingest on few hot sessions under a large subscriber population — default
// 2000 when -watchers is unset — reporting delivered events/s, the
// coalesced-skip ratio and delivery staleness percentiles), drift (windowed
// sessions; the generated error rate jumps 0.05→0.30 after 200 tasks per
// worker, the regime windowed estimation exists for), drift-gate (the drift
// shape with a quality-gate policy on every session — in-process only; the
// error-rate jump trips the remaining-errors rule into quarantine and every
// action transition is webhook-delivered to a local receiver, with the
// report's gate block recording transitions, deliveries, dead letters and
// decisions still stale at quiesce), poll-dirty (45/45/10
// ingest/poll/CI-poll on confidence-tracked sessions — the report separates
// dirty-read latency from bootstrap-CI latency, with ingest's percentiles
// showing the cost of a CI running concurrently), restart (populate
// -sessions durable sessions, then cycle timed engine reboots measuring boot
// recovery time and first-estimate latency; honors -recovery-parallelism).
//
// Determinism: the op stream — sessions touched, batch contents, op order per
// worker — is a pure function of (-seed, worker index, workload flags).
// Wall-clock effects (how many ops fit in -duration) obviously vary.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dqm"
	"dqm/internal/hub"
	"dqm/internal/policy"
	"dqm/internal/votelog"
)

type config struct {
	Target              string
	Scenario            string
	Sessions            int
	Workers             int
	Duration            time.Duration
	Items               int
	Batch               int
	Rate                float64
	Seed                uint64
	Watchers            int
	DataDir             string
	RecoveryParallelism int
	Out                 string
}

func main() {
	fs := flag.NewFlagSet("dqm-loadgen", flag.ExitOnError)
	var cfg config
	fs.StringVar(&cfg.Target, "target", "", "dqm-serve base URL (empty = drive the engine in-process)")
	fs.StringVar(&cfg.Scenario, "scenario", "mixed", "workload scenario: ingest, binary-ingest, binary-mixed, poll, mixed, watch, watch-storm, drift, drift-gate, poll-dirty or restart")
	fs.IntVar(&cfg.Sessions, "sessions", 4, "concurrent sessions")
	fs.IntVar(&cfg.Workers, "workers", 8, "concurrent load workers")
	fs.DurationVar(&cfg.Duration, "duration", 5*time.Second, "measurement duration")
	fs.IntVar(&cfg.Items, "items", 5000, "population size per session")
	fs.IntVar(&cfg.Batch, "batch", 20, "votes per ingest op (one task each)")
	fs.Float64Var(&cfg.Rate, "rate", 0, "offered load in ops/s across all workers (0 = closed loop)")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "workload seed (same seed = same request stream)")
	fs.IntVar(&cfg.Watchers, "watchers", 0, "watch subscribers (watch scenario; 0 = one per session)")
	fs.StringVar(&cfg.DataDir, "data-dir", "", "journal the in-process engine under this directory")
	fs.IntVar(&cfg.RecoveryParallelism, "recovery-parallelism", 0, "boot-recovery worker count for the restart scenario (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&cfg.Out, "out", "BENCH_loadgen.json", "report output path (empty = stdout summary only)")
	fs.Parse(os.Args[1:])

	rep, err := run(cfg)
	if err != nil {
		log.Fatalf("dqm-loadgen: %v", err)
	}
	if cfg.Out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("dqm-loadgen: encode report: %v", err)
		}
		if err := os.WriteFile(cfg.Out, append(b, '\n'), 0o644); err != nil {
			log.Fatalf("dqm-loadgen: %v", err)
		}
		log.Printf("report written to %s", cfg.Out)
	}
	log.Print(rep.summary())
}

// report is the BENCH_loadgen.json schema (versioned; cmd/dqm-benchdiff
// parses it).
type report struct {
	Tool            string  `json:"tool"`
	SchemaVersion   int     `json:"schema_version"`
	Scenario        string  `json:"scenario"`
	Target          string  `json:"target"`
	Seed            uint64  `json:"seed"`
	Sessions        int     `json:"sessions"`
	Workers         int     `json:"workers"`
	DurationSeconds float64 `json:"duration_seconds"`
	RateLimit       float64 `json:"rate_limit_ops_per_sec,omitempty"`
	GoVersion       string  `json:"go_version"`
	GOMAXPROCS      int     `json:"gomaxprocs"`

	TotalOps      int64   `json:"total_ops"`
	TotalErrors   int64   `json:"total_errors"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	VotesPerSec   float64 `json:"votes_per_sec"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	AllocKiBPerOp float64 `json:"alloc_kib_per_op"`
	WatchEvents   int64   `json:"watch_events,omitempty"`
	WatchSubs     int     `json:"watch_subscribers,omitempty"`
	// Watch delivery detail (watch/watch-storm scenarios): aggregate
	// delivered events/s across subscribers, versions coalesced away (a
	// subscriber skipping to the latest), the skipped/(skipped+delivered)
	// ratio, and delivery staleness — the age of the newest ingest ack when
	// the event announcing it arrived (identical definition in-process and
	// over HTTP).
	WatchEventsPerSec float64    `json:"watch_events_per_sec,omitempty"`
	WatchSkipped      int64      `json:"watch_skipped,omitempty"`
	WatchSkipRatio    float64    `json:"watch_skip_ratio,omitempty"`
	WatchLatency      *latencyMS `json:"watch_latency_ms,omitempty"`

	// Gate is the quality-gate tally (drift-gate scenario): action
	// transitions observed, webhook deliveries and dead letters, and how many
	// sessions still had a stale cached decision after the post-run quiesce.
	// cmd/dqm-benchdiff gates on these.
	Gate *gateReport `json:"gate,omitempty"`

	Ops map[string]opReport `json:"ops"`
}

// gateReport is the gate block of the report (drift-gate scenario).
type gateReport struct {
	Transitions        int64 `json:"gate_transitions"`
	WebhookDeliveries  int64 `json:"webhook_deliveries"`
	WebhookDeadLetters int64 `json:"webhook_dead_letters"`
	StaleSessions      int64 `json:"gate_stale_sessions"`
}

// opReport aggregates one op kind.
type opReport struct {
	Count     int64     `json:"count"`
	Errors    int64     `json:"errors"`
	Votes     int64     `json:"votes,omitempty"`
	OpsPerSec float64   `json:"ops_per_sec"`
	Latency   latencyMS `json:"latency_ms"`
}

// latencyMS is a latency digest in milliseconds.
type latencyMS struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// summary renders the one-line human digest logged after a run.
func (r *report) summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario=%s target=%s: %d ops (%.0f ops/s, %.0f votes/s, %d errors, %.1f allocs/op)",
		r.Scenario, r.Target, r.TotalOps, r.OpsPerSec, r.VotesPerSec, r.TotalErrors, r.AllocsPerOp)
	kinds := make([]string, 0, len(r.Ops))
	for k := range r.Ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		o := r.Ops[k]
		fmt.Fprintf(&b, "\n  %-12s %8d ops  p50=%.3fms p99=%.3fms max=%.3fms",
			k, o.Count, o.Latency.P50, o.Latency.P99, o.Latency.Max)
	}
	if r.Gate != nil {
		fmt.Fprintf(&b, "\n  %-12s %8d transitions  deliveries=%d dead_letters=%d stale=%d",
			"gate", r.Gate.Transitions, r.Gate.WebhookDeliveries, r.Gate.WebhookDeadLetters, r.Gate.StaleSessions)
	}
	if r.WatchSubs > 0 {
		fmt.Fprintf(&b, "\n  %-12s %8d events from %d subscribers", "watch", r.WatchEvents, r.WatchSubs)
		if r.WatchEventsPerSec > 0 {
			fmt.Fprintf(&b, " (%.0f events/s, skip_ratio=%.2f", r.WatchEventsPerSec, r.WatchSkipRatio)
			if r.WatchLatency != nil {
				fmt.Fprintf(&b, ", staleness p50=%.1fms p99=%.1fms", r.WatchLatency.P50, r.WatchLatency.P99)
			}
			b.WriteString(")")
		}
	}
	return b.String()
}

// watchTally aggregates subscriber-side delivery observations across all
// watch goroutines.
type watchTally struct {
	events  atomic.Int64
	skipped atomic.Int64
	mu      sync.Mutex
	lat     []int64 // ns, staleness at delivery
}

// observe records one delivered event: how many versions were coalesced away
// since the subscriber's previous delivery, and the delivery staleness
// (negative = unknown, not recorded).
func (t *watchTally) observe(skipped int64, stalenessNS int64) {
	t.events.Add(1)
	if skipped > 0 {
		t.skipped.Add(skipped)
	}
	if stalenessNS >= 0 {
		t.mu.Lock()
		t.lat = append(t.lat, stalenessNS)
		t.mu.Unlock()
	}
}

// driver abstracts the target: in-process engine or HTTP dqm-serve.
type driver interface {
	// do executes one generated op. ctx bounds the op (an HTTP driver must
	// not block past the run deadline on a stalled target).
	do(ctx context.Context, o op) error
	// watch runs one subscriber against a session until ctx is done,
	// recording every delivered update (and its coalescing skips and
	// staleness) in tally.
	watch(ctx context.Context, session int, tally *watchTally) error
	close() error
}

// workerStats is one worker's private tally (merged after the run, so the
// measured path has no shared state beyond the target itself).
type workerStats struct {
	count   [numOpKinds]int64
	errors  [numOpKinds]int64
	votes   [numOpKinds]int64   // per kind, so JSON and binary ingest report separately
	latency [numOpKinds][]int64 // ns
}

func run(cfg config) (*report, error) {
	sc, err := findScenario(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	if cfg.Sessions <= 0 || cfg.Workers <= 0 || cfg.Items <= 0 || cfg.Batch <= 0 {
		return nil, fmt.Errorf("sessions, workers, items and batch must be positive")
	}
	if sc.Name == "restart" {
		return runRestart(cfg)
	}
	w := workload{Scenario: sc, Seed: cfg.Seed, Sessions: cfg.Sessions, Items: cfg.Items, Batch: cfg.Batch}

	var d driver
	if cfg.Target != "" {
		d, err = newHTTPDriver(cfg, sc)
	} else {
		d, err = newInprocDriver(cfg, sc)
	}
	if err != nil {
		return nil, err
	}
	defer d.close()

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()

	// Watch subscribers (outside the measured op stream).
	tally := &watchTally{}
	watchers := 0
	var watchWG sync.WaitGroup
	if sc.Watch {
		watchers = cfg.Watchers
		if watchers <= 0 {
			if sc.Storm {
				watchers = 2000
			} else {
				watchers = cfg.Sessions
			}
		}
		for i := 0; i < watchers; i++ {
			watchWG.Add(1)
			go func(i int) {
				defer watchWG.Done()
				_ = d.watch(ctx, i%cfg.Sessions, tally)
			}(i)
		}
	}

	// Open-loop pacing: each worker issues at Rate/Workers ops/s.
	var tickEvery time.Duration
	if cfg.Rate > 0 {
		tickEvery = time.Duration(float64(time.Second) * float64(cfg.Workers) / cfg.Rate)
	}

	stats := make([]workerStats, cfg.Workers)
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	start := time.Now()
	var wg sync.WaitGroup
	for wi := 0; wi < cfg.Workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			g := newOpGen(w, wi)
			st := &stats[wi]
			var tick *time.Ticker
			if tickEvery > 0 {
				tick = time.NewTicker(tickEvery)
				defer tick.Stop()
			}
			for {
				if tick != nil {
					select {
					case <-ctx.Done():
						return
					case <-tick.C:
					}
				} else if ctx.Err() != nil {
					return
				}
				o := g.Next()
				t0 := time.Now()
				err := d.do(ctx, o)
				el := time.Since(t0)
				st.count[o.Kind]++
				st.latency[o.Kind] = append(st.latency[o.Kind], el.Nanoseconds())
				if err != nil {
					if ctx.Err() != nil {
						return // shutdown race, not a workload error
					}
					st.errors[o.Kind]++
				} else if o.Kind == opIngest || o.Kind == opBinaryIngest {
					st.votes[o.Kind] += int64(len(o.Votes))
				}
			}
		}(wi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cancel()
	watchWG.Wait()
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)

	// Merge.
	rep := &report{
		Tool:            "dqm-loadgen",
		SchemaVersion:   1,
		Scenario:        sc.Name,
		Target:          "inprocess",
		Seed:            cfg.Seed,
		Sessions:        cfg.Sessions,
		Workers:         cfg.Workers,
		DurationSeconds: elapsed.Seconds(),
		RateLimit:       cfg.Rate,
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Ops:             make(map[string]opReport),
		WatchEvents:     tally.events.Load(),
		WatchSubs:       watchers,
	}
	if rep.WatchEvents > 0 {
		rep.WatchEventsPerSec = float64(rep.WatchEvents) / elapsed.Seconds()
		rep.WatchSkipped = tally.skipped.Load()
		rep.WatchSkipRatio = float64(rep.WatchSkipped) / float64(rep.WatchSkipped+rep.WatchEvents)
		if len(tally.lat) > 0 {
			sort.Slice(tally.lat, func(i, j int) bool { return tally.lat[i] < tally.lat[j] })
			rep.WatchLatency = &latencyMS{
				P50: pctMS(tally.lat, 0.50),
				P90: pctMS(tally.lat, 0.90),
				P99: pctMS(tally.lat, 0.99),
				Max: float64(tally.lat[len(tally.lat)-1]) / 1e6,
			}
		}
	}
	if cfg.Target != "" {
		rep.Target = cfg.Target
	}
	if sc.Gate {
		// Quiesce the gate plane before reading it: trailing-edge evaluations
		// and in-flight webhook deliveries finish after the last ingest ack.
		rep.Gate = d.(*inprocDriver).gateStats()
	}
	for k := opKind(0); k < numOpKinds; k++ {
		var merged []int64
		var count, errs int64
		for wi := range stats {
			count += stats[wi].count[k]
			errs += stats[wi].errors[k]
			merged = append(merged, stats[wi].latency[k]...)
		}
		if count == 0 {
			continue
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		o := opReport{
			Count:     count,
			Errors:    errs,
			OpsPerSec: float64(count) / elapsed.Seconds(),
			Latency: latencyMS{
				P50: pctMS(merged, 0.50),
				P90: pctMS(merged, 0.90),
				P99: pctMS(merged, 0.99),
				Max: float64(merged[len(merged)-1]) / 1e6,
			},
		}
		for wi := range stats {
			o.Votes += stats[wi].votes[k]
		}
		rep.Ops[k.String()] = o
		rep.TotalOps += count
		rep.TotalErrors += errs
	}
	rep.OpsPerSec = float64(rep.TotalOps) / elapsed.Seconds()
	var totalVotes int64
	for _, k := range []opKind{opIngest, opBinaryIngest} {
		if ing, ok := rep.Ops[k.String()]; ok {
			totalVotes += ing.Votes
		}
	}
	rep.VotesPerSec = float64(totalVotes) / elapsed.Seconds()
	if rep.TotalOps > 0 {
		rep.AllocsPerOp = float64(mem1.Mallocs-mem0.Mallocs) / float64(rep.TotalOps)
		rep.AllocKiBPerOp = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(rep.TotalOps) / 1024
	}
	return rep, nil
}

// pctMS reads the p-quantile of sorted ns samples in milliseconds.
func pctMS(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / 1e6
}

// sessionID names the k-th load session.
func sessionID(k int) string { return fmt.Sprintf("load-%d", k) }

// encodeBinaryBatch renders one generated vote batch as a binary DQMV body
// (one task: leading votes belong to task 0, the boundary lands at stream
// end — the same end_task=true semantics as the JSON ingest op).
func encodeBinaryBatch(vs []genVote) []byte {
	body := make([]byte, 0, 5+4*len(vs))
	body = append(body, votelog.BinaryMagic()...)
	for _, v := range vs {
		body = votelog.AppendBinaryVote(body, int32(v.Item), int32(v.Worker), v.Dirty)
	}
	return body
}

// windowCfg is the window shape windowed scenarios use.
func windowCfg() *dqm.WindowConfig {
	return &dqm.WindowConfig{Size: 50, Stride: 25, DecayAlpha: 0.3}
}

// ciReplicates/ciLevel parameterize the bootstrap CI the ci_poll op requests
// (the serve default of 200 replicates at 95%).
const (
	ciReplicates = 200
	ciLevel      = 0.95
)

// ---- in-process driver ----

type inprocDriver struct {
	eng  *dqm.Engine
	sess []*dqm.Session
	// marks[k] is the UnixNano of session k's latest acknowledged ingest —
	// the reference point for delivery-staleness measurement (the HTTP
	// driver keeps the identical clock, so the two targets report the same
	// quantity).
	marks []atomic.Int64
	// hub is the fan-out plane subscribers ride (built only for watch
	// scenarios), mirroring dqm-serve's wiring over the same engine.
	hub *hub.Hub
	// Gate-scenario plane: one event-driven policy gate per session, a shared
	// bounded webhook dispatcher, and a local HTTP receiver the transition
	// documents are delivered to (the same wiring dqm-serve runs, minus the
	// network between gate and dispatcher).
	gates       []*policy.Gate
	dispatcher  *policy.Dispatcher
	hookLn      net.Listener
	hookSrv     *http.Server
	transitions atomic.Int64
}

// gateSource adapts *dqm.Session to policy.Source for the in-process driver
// (the same adapter shape dqm-serve uses: version read before the estimates,
// expensive inputs computed only when the policy references them).
type gateSource struct {
	sess *dqm.Session
}

func (g gateSource) Version() uint64               { return g.sess.Version() }
func (g gateSource) Notify(ch chan<- struct{})     { g.sess.Notify(ch) }
func (g gateSource) StopNotify(ch chan<- struct{}) { g.sess.StopNotify(ch) }

func (g gateSource) Inputs(need policy.Needs) (policy.Inputs, error) {
	in := policy.Inputs{Version: g.sess.Version()}
	est := g.sess.Estimates()
	in.Remaining = est.Remaining()
	in.SwitchTotal = est.Switch.Total
	in.Tasks = g.sess.Tasks()
	in.Votes = g.sess.TotalVotes()
	if need.CI {
		if ci, err := g.sess.SwitchCI(need.CIReplicates, need.CILevel); err == nil {
			in.CIUpper = ci.Hi
			in.HasCI = true
		}
	}
	if need.Drift {
		if we, err := g.sess.WindowEstimates(dqm.WindowDecayed); err == nil {
			in.DriftRatio = policy.DriftRatio(we.Estimates.Remaining(), in.Remaining)
			in.HasDrift = true
		}
	}
	return in, nil
}

// Gate-scenario tuning: the quarantine rule trips once a session's estimated
// remaining errors cross gateRemainingThreshold (the drift schedule's
// 0.05→0.30 jump makes that inevitable within a load run), the drift-ratio
// warning exercises the windowed input path, and gateMinInterval coalesces
// per-batch wakeups so evaluation stays off ingest's critical path.
const (
	gateRemainingThreshold = 50
	gateDriftWarnRatio     = 0.5
	gateMinInterval        = 5 * time.Millisecond
)

// gatePolicy is the per-session policy drift-gate sessions run.
func gatePolicy(hookURL string) *policy.Policy {
	return &policy.Policy{
		Rules: []policy.Rule{
			{Name: "remaining-errors", Metric: policy.MetricRemaining, Op: ">", Value: gateRemainingThreshold, Severity: policy.SeverityCritical},
			{Name: "drifting", Metric: policy.MetricDriftRatio, Op: ">", Value: gateDriftWarnRatio, Severity: policy.SeverityWarning},
		},
		Webhook: &policy.Webhook{URL: hookURL},
	}
}

func newInprocDriver(cfg config, sc scenario) (*inprocDriver, error) {
	var (
		eng *dqm.Engine
		err error
	)
	if cfg.DataDir != "" {
		eng, err = dqm.OpenEngine(cfg.DataDir, dqm.EngineConfig{})
		if err != nil {
			return nil, err
		}
	} else {
		eng = dqm.NewEngine(dqm.EngineConfig{})
	}
	d := &inprocDriver{eng: eng, marks: make([]atomic.Int64, cfg.Sessions)}
	if sc.Watch {
		d.hub = hub.New(hub.Config{
			Resolve: func(id string) (hub.Session, bool) {
				s, ok := eng.Session(id)
				if !ok {
					return nil, false
				}
				return s, true
			},
			Encode: func(hs hub.Session, _ hub.View) ([]byte, uint64, error) {
				s := hs.(*dqm.Session)
				v := s.Version()
				b, err := json.Marshal(s.Estimates())
				return b, v, err
			},
		})
	}
	dcfg := dqm.Defaults()
	if sc.Windowed {
		dcfg.Window = windowCfg()
	}
	dcfg.TrackConfidence = sc.TrackConfidence
	for k := 0; k < cfg.Sessions; k++ {
		s, err := eng.CreateSession(sessionID(k), cfg.Items, dcfg)
		if err != nil {
			eng.Close()
			return nil, err
		}
		d.sess = append(d.sess, s)
	}
	if sc.Gate {
		if err := d.attachGates(); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// attachGates stands up the gate plane: a loopback webhook receiver, the
// shared dispatcher, and one event-driven gate per session. Transitions are
// counted here and enqueued for delivery, so the report can prove both that
// alerting fired and that every firing made it out of the process.
func (d *inprocDriver) attachGates() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("gate webhook receiver: %w", err)
	}
	d.hookLn = ln
	d.hookSrv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusNoContent)
	})}
	go d.hookSrv.Serve(ln)
	hookURL := "http://" + ln.Addr().String() + "/gate-hook"

	d.dispatcher = policy.NewDispatcher(policy.DispatcherConfig{})
	p := gatePolicy(hookURL)
	if err := p.Validate(); err != nil {
		return fmt.Errorf("gate policy: %w", err)
	}
	for i, s := range d.sess {
		d.gates = append(d.gates, policy.NewGate(p, gateSource{sess: s}, policy.GateConfig{
			SessionID:   sessionID(i),
			MinInterval: gateMinInterval,
			OnTransition: func(prev, cur policy.Action, dec policy.Decision, body []byte) {
				d.transitions.Add(1)
				// A full queue dead-letters inside Enqueue; every transition
				// therefore ends as exactly one delivery or one dead letter,
				// which is what gateStats waits on.
				d.dispatcher.Enqueue(policy.Delivery{URL: hookURL, Body: body})
			},
		}))
	}
	return nil
}

// gateStats quiesces the gate plane and tallies it for the report: wait for
// every gate's cached decision to catch up with its session (the pump may
// still owe a trailing-edge evaluation) and for the dispatcher to drain the
// deliveries the run enqueued, then count what remains stale.
func (d *inprocDriver) gateStats() *gateReport {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		settled := d.dispatcher.Deliveries()+d.dispatcher.DeadLetters() >= d.transitions.Load()
		for _, g := range d.gates {
			if g.Stale() {
				settled = false
				break
			}
		}
		if settled {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep := &gateReport{
		Transitions:        d.transitions.Load(),
		WebhookDeliveries:  d.dispatcher.Deliveries(),
		WebhookDeadLetters: d.dispatcher.DeadLetters(),
	}
	for _, g := range d.gates {
		if g.Stale() {
			rep.StaleSessions++
		}
	}
	return rep
}

func (d *inprocDriver) do(_ context.Context, o op) error {
	s := d.sess[o.Session]
	switch o.Kind {
	case opIngest:
		batch := make([]dqm.Vote, len(o.Votes))
		for i, v := range o.Votes {
			batch[i] = dqm.Vote{Item: v.Item, Worker: v.Worker, Dirty: v.Dirty}
		}
		if err := s.AppendVotes(batch, true); err != nil {
			return err
		}
		d.marks[o.Session].Store(time.Now().UnixNano())
		return nil
	case opBinaryIngest:
		if _, _, err := s.AppendDQMV(encodeBinaryBatch(o.Votes)); err != nil {
			return err
		}
		d.marks[o.Session].Store(time.Now().UnixNano())
		return nil
	case opPoll:
		s.Estimates()
		return nil
	case opWindowPoll:
		_, err := s.WindowEstimates(dqm.WindowCurrent)
		return err
	case opCIPoll:
		_, err := s.SwitchCI(ciReplicates, ciLevel)
		return err
	}
	return fmt.Errorf("unknown op kind %v", o.Kind)
}

// watch rides the fan-out hub — the in-process analogue of an SSE
// subscriber: event-driven delivery of the encoded-once payload, coalescing
// bursts to the latest version at a 10ms floor (the same interval the HTTP
// driver requests).
func (d *inprocDriver) watch(ctx context.Context, session int, tally *watchTally) error {
	sub, ok := d.hub.Subscribe(sessionID(session), hub.ViewAll, 0, watchInterval)
	if !ok {
		return fmt.Errorf("watch: unknown session %d", session)
	}
	defer sub.Close()
	var last uint64
	for {
		ev, ok := sub.Next(ctx)
		if !ok {
			return nil
		}
		if ev.Heartbeat {
			continue
		}
		// One ingest op = one version bump, so the version delta counts
		// updates coalesced away — the same arithmetic the HTTP driver
		// applies to SSE ids.
		var skipped int64
		if last != 0 && ev.Version > last+1 {
			skipped = int64(ev.Version - last - 1)
		}
		staleness := int64(-1)
		if mark := d.marks[session].Load(); mark > 0 {
			staleness = time.Now().UnixNano() - mark
		}
		tally.observe(skipped, staleness)
		last = ev.Version
	}
}

// watchInterval is the per-subscriber coalescing floor both drivers use.
const watchInterval = 10 * time.Millisecond

func (d *inprocDriver) close() error {
	for _, g := range d.gates {
		g.Close()
	}
	if d.dispatcher != nil {
		d.dispatcher.Close()
	}
	if d.hookSrv != nil {
		_ = d.hookSrv.Close()
	}
	return d.eng.Close()
}

// ---- HTTP driver ----

type httpDriver struct {
	base     string
	client   *http.Client
	sessions int
	batchBuf sync.Pool
	// marks mirrors inprocDriver.marks: per-session UnixNano of the latest
	// acknowledged ingest, read by watch subscribers to compute delivery
	// staleness.
	marks []atomic.Int64
}

func newHTTPDriver(cfg config, sc scenario) (*httpDriver, error) {
	if sc.Gate {
		// Gate tallies (transitions, dispatcher counters, staleness) live
		// inside the serving process; over HTTP they are observable only
		// through the metrics endpoint, not a load report.
		return nil, fmt.Errorf("scenario %q drives the gate plane in-process; drop -target", sc.Name)
	}
	d := &httpDriver{
		base: strings.TrimRight(cfg.Target, "/"),
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Workers * 2,
				MaxIdleConnsPerHost: cfg.Workers * 2,
			},
		},
		sessions: cfg.Sessions,
		marks:    make([]atomic.Int64, cfg.Sessions),
	}
	// Setup is bounded separately from the run: creating sessions against a
	// dead target should fail fast, not hang.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for k := 0; k < cfg.Sessions; k++ {
		body := map[string]any{"id": sessionID(k), "items": cfg.Items}
		sessCfg := map[string]any{}
		if sc.Windowed {
			w := windowCfg()
			sessCfg["window"] = map[string]any{
				"size": w.Size, "stride": w.Stride, "decay_alpha": w.DecayAlpha,
			}
		}
		if sc.TrackConfidence {
			sessCfg["track_confidence"] = true
		}
		if len(sessCfg) > 0 {
			body["config"] = sessCfg
		}
		status, err := d.postJSON(ctx, "/v1/sessions", body)
		if err != nil {
			return nil, fmt.Errorf("create %s: %w", sessionID(k), err)
		}
		// 409 = session survived a previous run (durable server); reuse it.
		if status != http.StatusCreated && status != http.StatusConflict {
			return nil, fmt.Errorf("create %s: HTTP %d", sessionID(k), status)
		}
	}
	return d, nil
}

// postJSON posts one JSON body and drains the response. ctx bounds the
// request so a stalled target cannot hang the run past its deadline.
func (d *httpDriver) postJSON(ctx context.Context, path string, body any) (int, error) {
	buf, ok := d.batchBuf.Get().(*strings.Builder)
	if !ok {
		buf = &strings.Builder{}
	}
	buf.Reset()
	defer d.batchBuf.Put(buf)
	if err := json.NewEncoder(buf).Encode(body); err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, "POST", d.base+path, strings.NewReader(buf.String()))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// postBinary posts one binary DQMV body and drains the response.
func (d *httpDriver) postBinary(ctx context.Context, path string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", votelog.ContentTypeDQMV)
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

func (d *httpDriver) get(ctx context.Context, path string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", d.base+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

func (d *httpDriver) do(ctx context.Context, o op) error {
	id := sessionID(o.Session)
	switch o.Kind {
	case opIngest:
		votes := make([]map[string]any, len(o.Votes))
		for i, v := range o.Votes {
			votes[i] = map[string]any{"item": v.Item, "worker": v.Worker, "dirty": v.Dirty}
		}
		status, err := d.postJSON(ctx, "/v1/sessions/"+id+"/votes", map[string]any{"votes": votes, "end_task": true})
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("ingest: HTTP %d", status)
		}
		d.marks[o.Session].Store(time.Now().UnixNano())
		return nil
	case opBinaryIngest:
		status, err := d.postBinary(ctx, "/v1/sessions/"+id+"/votes", encodeBinaryBatch(o.Votes))
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("binary ingest: HTTP %d", status)
		}
		d.marks[o.Session].Store(time.Now().UnixNano())
		return nil
	case opPoll:
		return d.expectOK(d.get(ctx, "/v1/sessions/"+id+"/estimates"))
	case opWindowPoll:
		return d.expectOK(d.get(ctx, "/v1/sessions/"+id+"/estimates?window=current"))
	case opCIPoll:
		return d.expectOK(d.get(ctx, fmt.Sprintf("/v1/sessions/%s/estimates?ci=%g&replicates=%d", id, ciLevel, ciReplicates)))
	}
	return fmt.Errorf("unknown op kind %v", o.Kind)
}

func (d *httpDriver) expectOK(status int, err error) error {
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d", status)
	}
	return nil
}

// watch subscribes to the SSE stream, reading each frame's `id:` line (the
// session version) to count deliveries and coalesced skips without paying a
// JSON decode per event; staleness comes off the driver's per-session
// last-ingest mark, exactly like the in-process subscriber.
func (d *httpDriver) watch(ctx context.Context, session int, tally *watchTally) error {
	req, err := http.NewRequestWithContext(ctx, "GET",
		d.base+"/v1/sessions/"+sessionID(session)+"/watch?min_interval="+watchInterval.String(), nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("watch: HTTP %d", resp.StatusCode)
	}
	var last uint64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "id: ") {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
		if err != nil {
			continue
		}
		var skipped int64
		if last != 0 && v > last+1 {
			skipped = int64(v - last - 1)
		}
		staleness := int64(-1)
		if mark := d.marks[session].Load(); mark > 0 {
			staleness = time.Now().UnixNano() - mark
		}
		tally.observe(skipped, staleness)
		last = v
	}
	return nil
}

func (d *httpDriver) close() error {
	d.client.CloseIdleConnections()
	return nil
}
