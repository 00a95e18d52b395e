package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// scrape is one parse of a Prometheus text exposition: sample value by
// series key, where the key is the metric name followed by its labels in
// exposition order, e.g. `dqm_http_request_seconds_sum{route="votes"}`.
type scrape map[string]float64

// parseProm parses the text exposition format. Comment and blank lines are
// skipped; label values may contain escaped quotes and backslashes.
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		key, rest, err := splitSeries(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", line, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", line, err)
		}
		out[key] = v
	}
	return out, sc.Err()
}

// splitSeries splits a sample line into its series key and the remainder
// (value and optional timestamp).
func splitSeries(text string) (key, rest string, err error) {
	i := strings.IndexAny(text, "{ \t")
	if i < 0 {
		return "", "", fmt.Errorf("no value in %q", text)
	}
	if text[i] != '{' {
		return text[:i], text[i:], nil
	}
	inQuote := false
	for j := i + 1; j < len(text); j++ {
		switch c := text[j]; {
		case inQuote && c == '\\':
			j++
		case c == '"':
			inQuote = !inQuote
		case !inQuote && c == '}':
			return text[:j+1], text[j+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated labels in %q", text)
}

// series builds the key of name with label pairs k1, v1, k2, v2, ... in the
// given order.
func series(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// delta returns after minus before for every series in after.
func (after scrape) delta(before scrape) scrape {
	out := make(scrape, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// get returns the value of name{kv...}, 0 when absent.
func (s scrape) get(name string, kv ...string) float64 { return s[series(name, kv...)] }

// histMean is a histogram's mean observation, sum over count, and the count
// behind it; the mean is 0 when there are no observations.
func (s scrape) histMean(name string, kv ...string) (meanV, count float64) {
	count = s.get(name+"_count", kv...)
	if count == 0 {
		return 0, 0
	}
	return s.get(name+"_sum", kv...) / count, count
}
