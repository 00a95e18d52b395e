package engine

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dqm/internal/votelog"
	"dqm/internal/votes"
)

// colBatch builds one raw columnar batch ('V' records only).
func colBatch(rng *rand.Rand, n, size int) ([]byte, []votes.Vote) {
	var raw []byte
	batch := make([]votes.Vote, size)
	for i := range batch {
		item, worker, dirty := rng.Intn(n), rng.Intn(6), rng.Intn(2) == 0
		raw = votelog.AppendBinaryVote(raw, int32(item), int32(worker), dirty)
		label := votes.Clean
		if dirty {
			label = votes.Dirty
		}
		batch[i] = votes.Vote{Item: item, Worker: worker, Label: label}
	}
	return raw, batch
}

// TestColumnarMatchesEntryPath: AppendColumns must be estimate-identical to
// Append of the same votes — the columnar encoding is a transport detail.
func TestColumnarMatchesEntryPath(t *testing.T) {
	const n = 40
	col := NewSession("col", n, sessionCfg())
	ref := NewSession("ref", n, sessionCfg())
	rng := rand.New(rand.NewSource(5))
	for task := 0; task < 120; task++ {
		raw, batch := colBatch(rng, n, 1+rng.Intn(5))
		end := rng.Intn(3) != 0
		got, err := col.AppendColumns(raw, end)
		if err != nil {
			t.Fatal(err)
		}
		if got != len(batch) {
			t.Fatalf("task %d: ingested %d votes, want %d", task, got, len(batch))
		}
		if err := ref.Append(batch, end); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(col.Estimates(), ref.Estimates()) {
		t.Fatal("columnar ingest diverges from the Append path")
	}
	if col.TotalVotes() != ref.TotalVotes() || col.Tasks() != ref.Tasks() {
		t.Fatalf("counters: votes %d/%d tasks %d/%d",
			col.TotalVotes(), ref.TotalVotes(), col.Tasks(), ref.Tasks())
	}
}

func TestAppendColumnsValidates(t *testing.T) {
	s := NewSession("col-bad", 10, sessionCfg())
	before := s.Estimates()
	if _, err := s.AppendColumns([]byte{0xEE}, true); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := s.AppendColumns(votelog.AppendBinaryVote(nil, 10, 0, true), true); err == nil ||
		!strings.Contains(err.Error(), "outside population") {
		t.Fatal("out-of-range item accepted")
	}
	// A rejected batch applies nothing: no votes, no task boundary.
	if got := s.Estimates(); !reflect.DeepEqual(got, before) {
		t.Fatal("rejected columnar batch mutated the session")
	}
	if s.TotalVotes() != 0 || s.Tasks() != 0 {
		t.Fatalf("counters moved: votes=%d tasks=%d", s.TotalVotes(), s.Tasks())
	}
	// Empty raw with a boundary is the bare-EndTask shape.
	if n, err := s.AppendColumns(nil, true); err != nil || n != 0 {
		t.Fatalf("empty batch with boundary: n=%d err=%v", n, err)
	}
	if s.Tasks() != 1 {
		t.Fatalf("tasks = %d after bare boundary", s.Tasks())
	}
}

// TestDurableColumnarIngestRecovers: columnar batches journal as single
// opColumns frames; restart must replay them (and interleaved Append frames)
// to bit-identical estimates.
func TestDurableColumnarIngestRecovers(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	s, err := e.Create("col-durable", n, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for task := 0; task < 200; task++ {
		raw, batch := colBatch(rng, n, 1+rng.Intn(4))
		if task%3 == 0 { // interleave the two write paths
			if err := s.Append(batch, true); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := s.AppendColumns(raw, rng.Intn(4) != 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := s.Estimates()
	wantVotes, wantTasks := s.TotalVotes(), s.Tasks()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	s2, ok := e2.Get("col-durable")
	if !ok {
		t.Fatal("session not recovered")
	}
	if got := s2.Estimates(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered columnar estimates differ:\n got %+v\nwant %+v", got, want)
	}
	if s2.TotalVotes() != wantVotes || s2.Tasks() != wantTasks {
		t.Fatalf("recovered counters: votes %d/%d tasks %d/%d",
			s2.TotalVotes(), wantVotes, s2.Tasks(), wantTasks)
	}
}
