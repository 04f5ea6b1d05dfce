package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"wolves/internal/server"
)

// counters is one scrape of the daemon's telemetry: every /metrics
// series summed over its label sets, keyed by family name (histograms
// contribute name_count and name_sum), plus /v1/stats.
type counters struct {
	m     map[string]float64
	stats server.StatsResponse
}

func scrape(ctx context.Context, c *client) (*counters, error) {
	raw, err := c.call(ctx, "GET", "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	m, err := parseMetrics(raw)
	if err != nil {
		return nil, err
	}
	out := &counters{m: m}
	raw, err = c.call(ctx, "GET", "/v1/stats", "", nil)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &out.stats); err != nil {
		return nil, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return out, nil
}

// parseMetrics reads Prometheus text exposition, summing each family's
// series over their labels.
func parseMetrics(raw []byte) (map[string]float64, error) {
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		m[name] += v
	}
	return m, sc.Err()
}

// delta is after minus before for one family.
func delta(before, after *counters, name string) float64 { return after.m[name] - before.m[name] }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a pass's metrics and prints them, each by name with
// its unit and, where it has one, the base or sample count behind it.
type report struct {
	vals  map[string]metric
	notes map[string]string
}

func newReport() *report { return &report{vals: map[string]metric{}, notes: map[string]string{}} }

func (r *report) set(name string, v float64, unit, note string) {
	r.vals[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

func (r *report) lines(prefix string) []string {
	names := make([]string, 0, len(r.vals))
	for n := range r.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, n := range names {
		v := r.vals[n]
		s := fmt.Sprintf("%s%-40s %14.6g %-6s", prefix, n, v.Value, v.Unit)
		if note := r.notes[n]; note != "" {
			s += "  (" + note + ")"
		}
		out = append(out, s)
	}
	return out
}
