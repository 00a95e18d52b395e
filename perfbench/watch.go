package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// watchEvent is one parsed SSE estimates event.
type watchEvent struct {
	Tasks int64
	At    time.Time
}

// watcher holds one SSE watch stream open on its own connection and records
// when each event was parsed.
type watcher struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	events []watchEvent
	err    error // why the stream ended, when it ended before cancel
	more   chan struct{}
}

// startWatch opens GET /v1/sessions/{id}/watch and returns once the stream's
// headers have arrived.
func startWatch(addr, id string) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", "http://"+addr+"/v1/sessions/"+id+"/watch", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true, MaxConnsPerHost: 1}}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch %s: status %d", id, resp.StatusCode)
	}
	w := &watcher{cancel: cancel, done: make(chan struct{}), more: make(chan struct{}, 1)}
	go w.read(ctx, resp)
	return w, nil
}

func (w *watcher) read(ctx context.Context, resp *http.Response) {
	defer close(w.done)
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var ev struct {
		Tasks int64 `json:"tasks"`
	}
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if ctx.Err() == nil {
				w.mu.Lock()
				w.err = fmt.Errorf("watch stream ended early: %v", err)
				w.mu.Unlock()
			}
			return
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		if err := json.Unmarshal(data, &ev); err != nil {
			w.mu.Lock()
			w.err = fmt.Errorf("watch event: %v", err)
			w.mu.Unlock()
			return
		}
		at := time.Now()
		w.mu.Lock()
		w.events = append(w.events, watchEvent{ev.Tasks, at})
		w.mu.Unlock()
		select {
		case w.more <- struct{}{}:
		default:
		}
	}
}

// waitTasks blocks until an event with at least tasks has been parsed, the
// stream ends, or timeout passes.
func (w *watcher) waitTasks(tasks int64, timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		w.mu.Lock()
		n := len(w.events)
		reached := n > 0 && w.events[n-1].Tasks >= tasks
		w.mu.Unlock()
		if reached {
			return true
		}
		select {
		case <-w.more:
		case <-w.done:
			return false
		case <-deadline:
			return false
		}
	}
}

// stop closes the stream and waits for the reader to exit. It returns the
// events and the error that ended the stream before stop, if any.
func (w *watcher) stop() ([]watchEvent, error) {
	w.cancel()
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.events, w.err
}

// watchLags pairs each acknowledged write (tasks count and ack time) with the
// first event whose tasks covers it, and returns the lags in ms. Writes no
// event covers are counted as missed.
func watchLags(acks []watchEvent, events []watchEvent) (lags latencies, missed int) {
	for _, a := range acks {
		i := sort.Search(len(events), func(i int) bool { return events[i].Tasks >= a.Tasks })
		if i == len(events) {
			missed++
			continue
		}
		lags = append(lags, float64(events[i].At.Sub(a.At))/1e6)
	}
	return lags, missed
}

// nonDecreasing reports whether the events' tasks never go down.
func nonDecreasing(events []watchEvent) bool {
	for i := 1; i < len(events); i++ {
		if events[i].Tasks < events[i-1].Tasks {
			return false
		}
	}
	return true
}
