package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dqm/internal/engine"
	"dqm/internal/hub"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1 << 20, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {20, 1}, {21, 2}, {50, 3}, {80, 4}, {99, 5}, {100, 5}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestLatencyTailReportsRuleAndCount(t *testing.T) {
	var l latencies
	for i := 1; i <= 1000; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	v, p, n := l.tail(99)
	if p != 99 || n != 1000 || v != 990 {
		t.Errorf("tail(99) of 1..1000 ms = %g at p%g of %d, want 990 at p99 of 1000", v, p, n)
	}
	v, p, n = l[:500].tail(99)
	if p != 95 || n != 500 || v != 475 {
		t.Errorf("tail(99) of 1..500 ms = %g at p%g of %d, want 475 at p95 of 500", v, p, n)
	}
	if v, p, _ = l.tail(90); p != 90 || v != 900 {
		t.Errorf("tail(90) = %g at p%g, want 900 at p90 (capped at the named percentile)", v, p)
	}
}

const exposition = `# HELP dqm_http_request_seconds HTTP request latency by route.
# TYPE dqm_http_request_seconds histogram
dqm_http_request_seconds_bucket{route="votes",le="0.001"} 3
dqm_http_request_seconds_bucket{route="votes",le="+Inf"} 4
dqm_http_request_seconds_sum{route="votes"} 0.01
dqm_http_request_seconds_count{route="votes"} 4
dqm_http_requests_total{code="200",route="votes"} 4
dqm_odd{path="a \"quoted\" } value"} 7 1700000000
dqm_wal_fsyncs_total 12

`

func TestParseProm(t *testing.T) {
	s, err := parseProm(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.get("dqm_http_requests_total", "code", "200", "route", "votes"); got != 4 {
		t.Errorf("requests_total = %g, want 4", got)
	}
	if got := s.get("dqm_wal_fsyncs_total"); got != 12 {
		t.Errorf("fsyncs_total = %g, want 12", got)
	}
	if got := s[`dqm_odd{path="a \"quoted\" } value"}`]; got != 7 {
		t.Errorf("escaped label series = %g, want 7 (timestamp ignored)", got)
	}
	m, n := s.histMean("dqm_http_request_seconds", "route", "votes")
	if n != 4 || math.Abs(m-0.0025) > 1e-15 {
		t.Errorf("histMean = %g over %g, want 0.0025 over 4", m, n)
	}
	if m, n := s.histMean("dqm_absent"); m != 0 || n != 0 {
		t.Errorf("histMean of an absent histogram = %g over %g, want 0 over 0", m, n)
	}
}

func TestPromDeltaAndErrors(t *testing.T) {
	before, _ := parseProm(strings.NewReader("a 1\nb_sum 2\nb_count 1\n"))
	after, _ := parseProm(strings.NewReader("a 5\nb_sum 8\nb_count 4\nc 3\n"))
	d := after.delta(before)
	if d.get("a") != 4 || d.get("c") != 3 {
		t.Errorf("delta = %v", d)
	}
	if m, n := d.histMean("b"); m != 2 || n != 3 {
		t.Errorf("delta histMean = %g over %g, want 2 over 3", m, n)
	}
	for _, bad := range []string{"novalue\n", `x{a="b" 1` + "\n", "x notanumber\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) succeeded, want an error", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "root", Start: 0, End: 100},
		// Overlapping children cover [10, 40) once: 30.
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 20, End: 40},
		// A child running past its parent counts only inside it: [90, 100).
		{ID: 4, Parent: 1, Op: 1, Name: "c", Start: 90, End: 120},
		// A detached child is charged by its whole duration.
		{ID: 5, Parent: 2, Op: 1, Name: "shadow", Start: 200, End: 205, Detached: true},
		{ID: 6, Parent: 2, Op: 1, Name: "inner", Start: 12, End: 14},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 30 - 10, 2: 20 - 2 - 5, 3: 20, 4: 30, 5: 5, 6: 2}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	agg := aggregate(append(spans, span{ID: 7, Op: 2, Name: "root", Start: 0, End: 50}))
	if r := agg["root"]; r.N != 2 || r.Ops != 2 || r.Total != 150 || r.Self != 60+50 {
		t.Errorf("aggregate root = %+v", *r)
	}
	if got := agg["root"].perOpUs(); got != 0.075 {
		t.Errorf("perOpUs = %g, want 0.075", got)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	r := newRecorder(false, time.Now(), 0)
	id := r.begin(1, 0, "x")
	r.end(id)
	r.detach(id)
	if id != 0 || len(r.spans) != 0 {
		t.Errorf("recorder off recorded id %d, %d spans", id, len(r.spans))
	}
	r = newRecorder(true, time.Now(), 10)
	a := r.begin(1, 0, "a")
	b := r.begin(1, a, "b")
	r.end(b)
	r.end(a)
	if a != 11 || b != 12 || r.spans[1].Parent != a || r.spans[0].End < r.spans[1].End {
		t.Errorf("spans = %+v", r.spans)
	}
}

func TestOpStreamsArePureFunctionsOfSeed(t *testing.T) {
	b1, b2, b3 := planBulk(7, 1), planBulk(7, 1), planBulk(8, 1)
	if !reflect.DeepEqual(b1, b2) {
		t.Error("bulk op stream differs between two plans of one seed")
	}
	if bytes.Equal(b1.Loaders[0][0].Body, b3.Loaders[0][0].Body) {
		t.Error("bulk op streams of seeds 7 and 8 start with the same request")
	}
	m1, m2, m3 := planMonitor(7, 1, 10), planMonitor(7, 1, 10), planMonitor(8, 1, 10)
	if !reflect.DeepEqual(m1, m2) {
		t.Error("monitor op stream differs between two plans of one seed")
	}
	if reflect.DeepEqual(m1.Cycles, m3.Cycles) {
		t.Error("monitor op streams of seeds 7 and 8 are identical")
	}
}

func TestBulkPlanShape(t *testing.T) {
	p := planBulk(3, 1)
	perSess := bulkReqsPerSecond / bulkSessions
	for l := range p.Loaders {
		if len(p.Loaders[l]) != perSess*bulkSessions/bulkLoaders {
			t.Fatalf("loader %d has %d requests", l, len(p.Loaders[l]))
		}
		for i, r := range p.Loaders[l] {
			// Round-robin over the loader's own sessions, each request
			// carrying the session's next tasks.
			own := bulkSessions / bulkLoaders
			if r.Session != l*own+i%own || r.First != i/own*bulkTasksPerReq || r.N != bulkTasksPerReq {
				t.Fatalf("loader %d request %d = session %d tasks [%d,+%d)", l, i, r.Session, r.First, r.N)
			}
		}
	}
	if got, want := p.Ref[0].Tasks, int64(perSess*bulkTasksPerReq); got != want {
		t.Errorf("reference covers %d tasks, want %d", got, want)
	}
}

func TestMonitorPlanShape(t *testing.T) {
	p := planMonitor(3, 1, 20)
	for i, r := range p.Cycles {
		if hot := i%monHotEvery == 0; hot != (r.Session == 0) {
			t.Fatalf("cycle %d writes session %d", i, r.Session)
		}
	}
	for _, r := range p.Stage {
		if r.Session == 0 {
			t.Fatal("a stage cycle writes the watched session")
		}
	}
	total := 0
	for i, s := range p.Sessions {
		if p.measuredTasks[i] > s.numTasks() {
			t.Fatalf("session %d measured at %d of %d tasks", i, p.measuredTasks[i], s.numTasks())
		}
		total += p.measuredTasks[i] - monPreloadTasks
	}
	if total != len(p.Warm)+len(p.Cycles) {
		t.Errorf("measured tasks %d, want %d", total, len(p.Warm)+len(p.Cycles))
	}
}

func TestWatchLags(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	events := []watchEvent{{1, at(5)}, {3, at(20)}, {4, at(31)}}
	acks := []watchEvent{{1, at(4)}, {2, at(10)}, {3, at(18)}, {5, at(40)}}
	lags, missed := watchLags(acks, events)
	if !reflect.DeepEqual([]float64(lags), []float64{1, 10, 2}) || missed != 1 {
		t.Errorf("lags %v missed %d, want [1 10 2] and 1", lags, missed)
	}
	if !nonDecreasing(events) || nonDecreasing([]watchEvent{{2, t0}, {1, t0}}) {
		t.Error("nonDecreasing is wrong")
	}
}

func TestStageTableSumsToClientMean(t *testing.T) {
	out := stageTable("x", 100, 70, []stage{{"a", 10}, {"b", 25}}, 35)
	if !strings.Contains(out, "dqm-serve self (remainder)        35.00") ||
		!strings.Contains(out, "outside-handler                   30.00") ||
		!strings.Contains(out, "sum                              100.00") {
		t.Errorf("stage table:\n%s", out)
	}
}

// TestWirePayloadMatchesServer pins the traced hub encoder to dqm-serve's
// wire shape: a payload a real server returns must decode into wirePayload
// and re-encode to the same bytes, and encodeEstimates over an in-process
// session fed the same votes must render the same payload but for the
// per-process version.
func TestWirePayloadMatchesServer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts dqm-serve")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "dqm/cmd/dqm-serve").CombinedOutput(); err != nil {
		t.Fatalf("building dqm-serve: %v\n%s", err, out)
	}
	addr, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := startServer(bin, addr, 1, "-data-dir", filepath.Join(bin, "data"), "-fsync", "never")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.kill()
	c := newClient(addr)
	defer c.close()

	spec := genSession(7, "wire", 200, 40)
	e, err := engine.Open(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sess, err := e.Create(spec.ID, spec.Items, engine.SessionConfig{Suite: suiteConfig(true), Window: windowConfig()})
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	c.createSession(&tl, spec.ID, spec.Items, monitorSessionConfig)
	for k := 0; k < spec.numTasks(); k++ {
		c.call(&tl, "POST", "/v1/sessions/"+spec.ID+"/votes", "application/json", jsonTaskBody(spec.task(k)))
		if err := sess.Append(spec.task(k), true); err != nil {
			t.Fatal(err)
		}
	}
	raw, _ := c.call(&tl, "GET", "/v1/sessions/"+spec.ID+"/estimates", "", nil)
	if tl.Failed > 0 {
		t.Fatalf("requests failed: %s", tl.First)
	}
	raw = bytes.TrimSpace(raw)

	var got wirePayload
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(got); !bytes.Equal(again, raw) {
		t.Fatalf("served payload is not in wirePayload's shape:\nserved  %s\nwirePayload %s", raw, again)
	}
	body, _, err := encodeEstimates(hubSession{sess}, hub.ViewAll)
	if err != nil {
		t.Fatal(err)
	}
	var ours wirePayload
	if err := json.Unmarshal(body, &ours); err != nil {
		t.Fatal(err)
	}
	ours.Version = got.Version
	if again, _ := json.Marshal(ours); !bytes.Equal(again, raw) {
		t.Fatalf("encodeEstimates renders\n%s\nthe server serves\n%s", again, raw)
	}
}
