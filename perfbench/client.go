package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// tally counts operations attempted and failed. A failure is a non-2xx
// response other than an expected 304, a transport error, an SSE stream that
// ended early, or a process under test that exited.
type tally struct {
	Attempted, Failed int
	// First holds the first failure's description, for the report.
	First string
}

func (t *tally) ok() { t.Attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.Attempted++
	t.Failed++
	if t.First == "" {
		t.First = fmt.Sprintf(format, args...)
	}
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	if t.First == "" {
		t.First = o.First
	}
}

// client is one keep-alive connection to the server: its transport holds at
// most one connection, so a goroutine driving a client is one closed loop.
type client struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newClient(addr string) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     5 * time.Minute,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. The returned body is
// valid until the next call on c.
func (c *client) do(method, path, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// call sends a request and counts it in t: it succeeds on a 2xx status.
func (c *client) call(t *tally, method, path, ctype string, body []byte) ([]byte, bool) {
	code, b, err := c.do(method, path, ctype, body)
	switch {
	case err != nil:
		t.fail("%s %s: %v", method, path, err)
		return nil, false
	case code < 200 || code > 299:
		t.fail("%s %s: status %d: %.200s", method, path, code, b)
		return nil, false
	}
	t.ok()
	return b, true
}

// metrics scrapes /metrics.
func (c *client) metrics() (scrape, error) {
	code, b, err := c.do("GET", "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	return parseProm(bytes.NewReader(b))
}

// ingestAck is the votes endpoint's success body.
type ingestAck struct {
	Ingested   int   `json:"ingested"`
	TasksEnded int   `json:"tasks_ended"`
	TotalVotes int64 `json:"total_votes"`
	Tasks      int64 `json:"tasks"`
}

// postVotes sends one ingest request and checks that the acknowledgement
// covers exactly the request's votes and tasks.
func (c *client) postVotes(t *tally, id, ctype string, r request) (ingestAck, bool) {
	var ack ingestAck
	b, ok := c.call(t, "POST", "/v1/sessions/"+id+"/votes", ctype, r.Body)
	if !ok {
		return ack, false
	}
	if err := json.Unmarshal(b, &ack); err != nil || ack.Ingested != r.Votes || ack.TasksEnded != r.N {
		t.Failed++
		if t.First == "" {
			t.First = fmt.Sprintf("POST votes %s: ack %s does not cover %d votes in %d tasks", id, b, r.Votes, r.N)
		}
		return ack, false
	}
	return ack, true
}

// createSession creates session id with the given population and config
// (raw JSON, or empty for the defaults).
func (c *client) createSession(t *tally, id string, items int, config string) bool {
	body := fmt.Sprintf(`{"id":%q,"items":%d`, id, items)
	if config != "" {
		body += `,"config":` + config
	}
	_, ok := c.call(t, "POST", "/v1/sessions", "application/json", []byte(body+"}"))
	return ok
}
