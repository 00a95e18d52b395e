package main

import (
	"encoding/json"
	"fmt"

	"dqm"
	"dqm/internal/votes"
)

// served is the estimates payload of GET /v1/sessions/{id}/estimates,
// without its version (a per-process counter that replay rebases).
type served struct {
	Nominal float64 `json:"nominal"`
	Voting  float64 `json:"voting"`
	Chao92  float64 `json:"chao92"`
	VChao92 float64 `json:"v_chao92"`
	Switch  struct {
		Total             float64 `json:"total"`
		XiPos             float64 `json:"xi_pos"`
		XiNeg             float64 `json:"xi_neg"`
		RemainingSwitches float64 `json:"remaining_switches"`
		Trend             string  `json:"trend"`
	} `json:"switch"`
	Remaining float64 `json:"remaining"`
	Tasks     int64   `json:"tasks"`
	Votes     int64   `json:"votes"`
}

func parseServed(b []byte) (served, error) {
	var s served
	err := json.Unmarshal(b, &s)
	return s, err
}

// referenceServed feeds a session's first tasks through an in-process
// dqm.Recorder with the same config the server session has, and renders
// the estimates the server should serve.
func referenceServed(s *sessionSpec, tasks int, cfg dqm.Config) served {
	r := dqm.NewRecorder(s.Items, cfg)
	for k := 0; k < tasks; k++ {
		feedReference(r, s.task(k))
	}
	return recorderServed(r)
}

// feedReference ingests one task into a reference recorder.
func feedReference(r *dqm.Recorder, task []votes.Vote) {
	batch := make([]dqm.Vote, 0, len(task))
	for _, v := range task {
		batch = append(batch, dqm.Vote{Item: v.Item, Worker: v.Worker, Dirty: v.Label == votes.Dirty})
	}
	if err := r.AppendVotes(batch, true); err != nil {
		panic(fmt.Sprintf("perfbench: reference ingest: %v", err))
	}
}

// recorderServed renders a recorder's estimates as the server serves them.
func recorderServed(r *dqm.Recorder) served {
	e := r.Estimates()
	var out served
	out.Nominal, out.Voting, out.Chao92, out.VChao92 = e.Nominal, e.Voting, e.Chao92, e.VChao92
	out.Switch.Total, out.Switch.XiPos, out.Switch.XiNeg = e.Switch.Total, e.Switch.XiPos, e.Switch.XiNeg
	out.Switch.RemainingSwitches = e.Switch.RemainingSwitches
	out.Switch.Trend = trendName(e.Switch.TrendUp, e.Switch.TrendDown)
	out.Remaining = e.Remaining()
	out.Tasks = r.Tasks()
	out.Votes = r.TotalVotes()
	return out
}

// trendName is the wire name of the SWITCH majority trend.
func trendName(up, down bool) string {
	switch {
	case up:
		return "up"
	case down:
		return "down"
	}
	return "flat"
}

// fetchServed reads every session's estimates.
func fetchServed(c *client, t *tally, sessions []*sessionSpec) ([]served, bool) {
	out := make([]served, len(sessions))
	allOK := true
	for i, s := range sessions {
		b, ok := c.call(t, "GET", "/v1/sessions/"+s.ID+"/estimates", "", nil)
		if !ok {
			allOK = false
			continue
		}
		var err error
		if out[i], err = parseServed(b); err != nil {
			t.Failed++
			allOK = false
		}
	}
	return out, allOK
}

// compareServed checks got against want session by session and returns a
// description of the first mismatch, or "" when all match exactly.
func compareServed(what string, sessions []*sessionSpec, got, want []served) string {
	bad := 0
	first := ""
	for i := range want {
		if got[i] != want[i] {
			if bad == 0 {
				first = fmt.Sprintf("%s: session %s serves %+v, want %+v", what, sessions[i].ID, got[i], want[i])
			}
			bad++
		}
	}
	if bad == 0 {
		return ""
	}
	return fmt.Sprintf("%s (%d of %d sessions differ)", first, bad, len(want))
}
