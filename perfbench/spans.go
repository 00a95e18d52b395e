package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the call. Spans of one op share Op; Parent is the causing span's ID
// (0 for a root).
//
// A detached span ran outside its parent's interval: the traced replay runs
// some layers a second time on standalone copies of their state (a WAL store,
// an estimator suite) fed the same inputs, so that work the engine does
// inside one call can be timed layer by layer. A detached child is charged
// to its parent by its duration, not by interval overlap.
type span struct {
	ID, Parent, Op int
	Name           string
	Start, End     int64 // nanoseconds since the recorder's epoch
	Detached       bool
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for one goroutine. With on=false it records
// nothing and costs one branch per call, which is how the trace overhead is
// measured.
type recorder struct {
	on    bool
	epoch time.Time
	next  int
	spans []span
}

func newRecorder(on bool, epoch time.Time, firstID int) *recorder {
	return &recorder{on: on, epoch: epoch, next: firstID}
}

// begin opens a span and returns its ID (0 when recording is off).
func (r *recorder) begin(op, parent int, name string) int {
	if !r.on {
		return 0
	}
	r.next++
	r.spans = append(r.spans, span{ID: r.next, Parent: parent, Op: op, Name: name, Start: int64(time.Since(r.epoch))})
	return r.next
}

// end closes span id. Spans close in LIFO order, so the open span is found
// by a short backwards scan.
func (r *recorder) end(id int) {
	if !r.on {
		return
	}
	now := int64(time.Since(r.epoch))
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].ID == id {
			r.spans[i].End = now
			return
		}
	}
}

// detach marks span id as detached from its parent (see span).
func (r *recorder) detach(id int) {
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].ID == id {
			r.spans[i].Detached = true
			return
		}
	}
}

// selfTimes returns each span's self time by ID: its duration minus the part
// of its interval that its attached children cover (overlapping children
// count once), minus the full durations of its detached children.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		var ivs [][2]int64
		var detached int64
		for _, c := range kids[s.ID] {
			if c.Detached {
				detached += c.dur()
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		out[s.ID] = s.dur() - covered(ivs) - detached
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanStats aggregates spans by name: total duration, total self time and
// count, plus the number of distinct ops the name occurred in.
type spanStats struct {
	Total, Self int64
	N, Ops      int
}

func aggregate(spans []span) map[string]*spanStats {
	self := selfTimes(spans)
	out := map[string]*spanStats{}
	seen := map[string]map[int]bool{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
			seen[s.Name] = map[int]bool{}
		}
		st.Total += s.dur()
		st.Self += self[s.ID]
		st.N++
		if !seen[s.Name][s.Op] {
			seen[s.Name][s.Op] = true
			st.Ops++
		}
	}
	return out
}

// meanUs is the mean duration per call in microseconds.
func (s *spanStats) meanUs() float64 {
	if s == nil || s.N == 0 {
		return 0
	}
	return float64(s.Total) / float64(s.N) / 1e3
}

// perOpUs is the total duration per op in microseconds.
func (s *spanStats) perOpUs() float64 {
	if s == nil || s.Ops == 0 {
		return 0
	}
	return float64(s.Total) / float64(s.Ops) / 1e3
}

// selfPerOpUs is the self time per op in microseconds.
func (s *spanStats) selfPerOpUs() float64 {
	if s == nil || s.Ops == 0 {
		return 0
	}
	return float64(s.Self) / float64(s.Ops) / 1e3
}
