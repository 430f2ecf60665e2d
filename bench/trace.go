package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded by the bench's own code around a
// call into the program: a timed read or write of the traced round, or
// one rung of the layer ladder. Spans of one op share its id; a ladder
// rung's parent is the span of the op's ladder pass.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log was opened
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the log, -1 for a root
	Op     int32  `json:"op"`
	Reps   int32  `json:"reps,omitempty"` // calls the interval holds, when more than one
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (l *spanLog) begin(name string, parent, op int32) int32 {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(l.t0))})
	return int32(len(l.spans) - 1)
}

// beginBlock opens a span that will hold reps back-to-back calls.
func (l *spanLog) beginBlock(name string, parent, op int32, reps int) int32 {
	id := l.begin(name, parent, op)
	if reps > 1 {
		l.spans[id].Reps = int32(reps)
	}
	return id
}

func (l *spanLog) end(id int32) time.Duration {
	s := &l.spans[id]
	s.End = int64(time.Since(l.t0))
	return time.Duration(s.End - s.Start)
}

// drop forgets the span begun last.
func (l *spanLog) drop(id int32) {
	if int(id) == len(l.spans)-1 {
		l.spans = l.spans[:id]
	}
}

// add records an interval that was timed elsewhere.
func (l *spanLog) add(name string, parent, op int32, start time.Time, d time.Duration) int32 {
	st := int64(start.Sub(l.t0))
	l.spans = append(l.spans, span{Name: name, Parent: parent, Op: op, Start: st, End: st + int64(d)})
	return int32(len(l.spans) - 1)
}

// meanUS is the mean duration in µs of a call inside the spans with
// the given name: every span counts once, with its interval divided by
// the calls it holds.
func (l *spanLog) meanUS(name string) float64 {
	var sum, n float64
	for _, s := range l.spans {
		if s.Name == name {
			sum += float64(s.End-s.Start) / float64(max(s.Reps, 1))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n / 1e3
}

// modeReport says, from the traced round's read spans, which latency
// mode (span name) the p50 and the p95 sample belong to and what share
// of the reads each mode holds.
type modeReport struct {
	P50Mode string             `json:"p50_mode"`
	P95Mode string             `json:"p95_mode"`
	Share   map[string]float64 `json:"share_pct"`
	MeanUS  map[string]float64 `json:"mean_us"`
	// ChildTimePct is, per span name, the share of the read spans' time
	// that their child spans of that name cover (paper-small's cold op
	// inside its block).
	ChildTimePct map[string]float64 `json:"child_time_pct,omitempty"`
}

func (l *spanLog) modes(prefix string) modeReport {
	type rs struct {
		name string
		d    int64
	}
	var reads []rs
	rep := modeReport{Share: map[string]float64{}, MeanUS: map[string]float64{}}
	isRead := func(s span) bool { return len(s.Name) >= len(prefix) && s.Name[:len(prefix)] == prefix }
	total := 0.0
	for _, s := range l.spans {
		if isRead(s) {
			reads = append(reads, rs{s.Name, s.End - s.Start})
			rep.Share[s.Name]++
			rep.MeanUS[s.Name] += float64(s.End-s.Start) / 1e3
			total += float64(s.End - s.Start)
		} else if s.Parent >= 0 && isRead(l.spans[s.Parent]) {
			if rep.ChildTimePct == nil {
				rep.ChildTimePct = map[string]float64{}
			}
			rep.ChildTimePct[s.Name] += float64(s.End - s.Start)
		}
	}
	for k := range rep.ChildTimePct {
		rep.ChildTimePct[k] *= 100 / total
	}
	if len(reads) == 0 {
		return rep
	}
	for k, c := range rep.Share {
		rep.MeanUS[k] /= c
		rep.Share[k] = 100 * c / float64(len(reads))
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].d < reads[j].d })
	rep.P50Mode = reads[rank(len(reads), 50)].name
	rep.P95Mode = reads[rank(len(reads), 95)].name
	return rep
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
