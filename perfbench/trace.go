package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanID identifies a recorded span; noSpan is the root (and what a
// disabled tracer hands out).
type spanID int32

const noSpan spanID = -1

// span is one timed call into a layer, recorded by the benchmark
// around its own call into the layer's public function.
type span struct {
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Parent spanID `json:"parent"`
	// Req is the request or step the span belongs to (-1: neither).
	Req int64 `json:"req"`
	// T0 and T1 are host nanoseconds since the tracer started.
	T0 int64 `json:"t0_ns"`
	T1 int64 `json:"t1_ns"`
}

// tracer keeps spans in memory; they are written out when the run
// ends. A disabled tracer records nothing and reads no clock.
type tracer struct {
	on    bool
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, base: time.Now()}
	if on {
		t.spans = make([]span, 0, 1<<16)
	}
	return t
}

// start opens a span; end closes it.
func (t *tracer) start(layer, op string, parent spanID, req int64) spanID {
	if !t.on {
		return noSpan
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{Layer: layer, Op: op, Parent: parent, Req: req, T0: now, T1: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id spanID) {
	if !t.on || id == noSpan {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id].T1 = now
	t.mu.Unlock()
}

// record adds a span whose bounds were measured by the caller, such as
// a request timed from when it was due.
func (t *tracer) record(layer, op string, parent spanID, req int64, t0, t1 time.Time) spanID {
	if !t.on {
		return noSpan
	}
	t.mu.Lock()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{Layer: layer, Op: op, Parent: parent, Req: req,
		T0: int64(t0.Sub(t.base)), T1: int64(t1.Sub(t.base))})
	t.mu.Unlock()
	return id
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per layer, the self time of its spans: a span's
// duration minus the part of its interval that its child spans cover
// (children running in parallel are merged, not double counted). Spans
// still open are ignored.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) && s.T1 >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	perLayer := map[string]time.Duration{}
	for i, s := range spans {
		if s.T1 < 0 {
			continue
		}
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].T0, s.T0), min(spans[c].T1, s.T1)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		curHi = -1
		for _, iv := range ivs {
			if iv[0] > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = iv[0], iv[1]
			} else if iv[1] > curHi {
				curHi = iv[1]
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		perLayer[s.Layer] += time.Duration(s.T1 - s.T0 - covered)
	}
	return perLayer
}

// part is one layer's share of an end-to-end metric.
type part struct {
	Layer string  `json:"layer"`
	Value float64 `json:"value"`
}

// breakdown splits an end-to-end metric into its layers; Residual is
// the part no layer span explains.
type breakdown struct {
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Parts    []part  `json:"parts"`
	Residual float64 `json:"residual"`
	Source   string  `json:"source"`
}

func (b breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%.4g %s =", b.Value, b.Unit)
	for _, p := range b.Parts {
		fmt.Fprintf(&sb, " %s %.4g +", p.Layer, p.Value)
	}
	fmt.Fprintf(&sb, " residual %.4g  (%s)", b.Residual, b.Source)
	return sb.String()
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(map[string]any{"clock": "host", "spans": t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
