package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark around a
// public call (nothing inside the program is instrumented). Depth-0 spans of
// a goroutine role tile its timeline; a deeper span is a child of the
// enclosing depth-0 span (its time is not part of the parent's self time).
type span struct {
	name       string
	depth      uint8
	trace, ivl int32
	start, end int64 // ns since the tracer's origin
}

// role is one goroutine's timeline: its wall time and its spans, appended
// without locking (a role is owned by one goroutine).
type role struct {
	kind       string
	id         int
	start, end int64
	spans      []span
	t          *tracer
}

// tracer keeps every span in memory until the run ends. A nil *tracer and a
// nil *role are valid and record nothing, so untraced code paths share the
// traced ones.
type tracer struct {
	workload string
	origin   time.Time
	mu       sync.Mutex
	roles    []*role
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// now reads the tracer's monotonic clock (0 on a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// role opens a goroutine role; its wall time starts now.
func (t *tracer) role(kind string) *role {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &role{kind: kind, id: len(t.roles), t: t}
	r.start = t.now()
	t.roles = append(t.roles, r)
	return r
}

func (r *role) now() int64 {
	if r == nil {
		return 0
	}
	return r.t.now()
}

// done closes the role's wall time.
func (r *role) done() {
	if r != nil {
		r.end = r.t.now()
	}
}

// span records [start, end) under name.
func (r *role) span(name string, depth uint8, tr, ivl int, start, end int64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{name: name, depth: depth, trace: int32(tr), ivl: int32(ivl), start: start, end: end})
}

// since records [start, now) under name and returns now, the next span's
// start.
func (r *role) since(name string, depth uint8, tr, ivl int, start int64) int64 {
	if r == nil {
		return 0
	}
	end := r.t.now()
	r.span(name, depth, tr, ivl, start, end)
	return end
}

// busy sums the durations of every span named name, in seconds.
func (t *tracer) busy(name string) float64 {
	if t == nil {
		return 0
	}
	var ns int64
	for _, r := range t.roles {
		for _, s := range r.spans {
			if s.name == name {
				ns += s.end - s.start
			}
		}
	}
	return float64(ns) / 1e9
}

// count counts the spans named name.
func (t *tracer) count(name string) int {
	if t == nil {
		return 0
	}
	n := 0
	for _, r := range t.roles {
		for _, s := range r.spans {
			if s.name == name {
				n++
			}
		}
	}
	return n
}

// unattributed returns, summed over roles, the wall time no depth-0 span
// covers, and the roles' total wall time (seconds).
func (t *tracer) unattributed() (gap, wall float64) {
	if t == nil {
		return 0, 0
	}
	var g, w int64
	for _, r := range t.roles {
		var covered int64
		for _, s := range r.spans {
			if s.depth == 0 {
				covered += s.end - s.start
			}
		}
		w += r.end - r.start
		g += r.end - r.start - covered
	}
	return float64(g) / 1e9, float64(w) / 1e9
}

// maxUnattributed is the share of the roles' wall time the depth-0 spans may
// leave uncovered (loop bookkeeping, channel hand-offs between calls). A
// larger gap means a layer call went untimed, and the traced run fails.
const maxUnattributed = 0.05

// unattributedOK applies the bound.
func unattributedOK(gap, wall float64) bool {
	return wall > 0 && gap >= 0 && gap <= maxUnattributed*wall
}

// writeTSV writes every span, one per line: workload, role kind, role id,
// span name, depth, trace, interval, start and end (ns since the origin).
func (t *tracer) writeTSV(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "workload\trole\trole_id\tspan\tdepth\ttrace\tinterval\tstart_ns\tend_ns")
	for _, r := range t.roles {
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t0\t-1\t-1\t%d\t%d\n", t.workload, r.kind, r.id, "role", r.start, r.end)
		for _, s := range r.spans {
			fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
				t.workload, r.kind, r.id, s.name, s.depth, s.trace, s.ivl, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
