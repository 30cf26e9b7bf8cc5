package main

import (
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// span is one timed call in the traced run. Spans of one request share Req;
// a request's root has Parent 0.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"` // CPU time of the calling thread inside the span
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends. It
// is used from one goroutine locked to its OS thread, so the thread's CPU
// clock measures the work done by the calling thread itself. A nil tracer
// records nothing, which is how the untraced replay runs the same code.
type tracer struct {
	t0    time.Time
	req   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request opens the root span of a new request, named by its kind.
func (t *tracer) request(kind string) int {
	if t == nil {
		return 0
	}
	t.req++
	return t.begin(0, kind)
}

func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name,
		Start: time.Since(t.t0).Nanoseconds(), CPU: threadCPU()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.CPU = threadCPU() - s.CPU
	s.End = time.Since(t.t0).Nanoseconds()
}

// threadCPU reads CLOCK_THREAD_CPUTIME_ID for the calling OS thread.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0) // cannot fail for this clock
	return ts.Nano()
}

// selfTime holds one span's self time (its duration minus the part of its
// interval that child spans cover) and self wait (the time its own thread
// spent off-CPU in it — blocked on I/O or locks, waiting for helper
// goroutines or the scheduler — minus the children's).
type selfTime struct{ self, wait int64 }

// selfTimes computes every span's self time and self wait. Children are
// clipped to their parent's interval and overlapping children are counted
// once.
func selfTimes(spans []span) []selfTime {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]selfTime, len(spans))
	for i, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		covered, childWait := int64(0), int64(0)
		cur := s.Start // end of the covered prefix so far
		for _, c := range ch {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
			childWait += max(0, c.dur()-c.CPU)
		}
		out[i] = selfTime{self: s.dur() - covered, wait: max(0, s.dur()-s.CPU-childWait)}
	}
	return out
}

// layerStats summarizes spans by name: call count, self-time quantiles, the
// share of all root time spent in the layer itself, and its self wait per
// request.
type layerStats struct {
	Count          int
	SelfP50        int64
	SelfP99        int64
	SelfShare      float64
	WaitPerRequest int64
}

func summarize(spans []span) (map[string]layerStats, []int64) {
	st := selfTimes(spans)
	var roots []int64
	var rootTotal int64
	selfs := map[string][]time.Duration{}
	sum := map[string]int64{}
	wait := map[string]int64{}
	for i, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, s.dur())
			rootTotal += s.dur()
		}
		selfs[s.Name] = append(selfs[s.Name], time.Duration(st[i].self))
		sum[s.Name] += st[i].self
		wait[s.Name] += st[i].wait
	}
	out := map[string]layerStats{}
	for name, ds := range selfs {
		out[name] = layerStats{
			Count:          len(ds),
			SelfP50:        int64(quantile(ds, 0.50)),
			SelfP99:        int64(quantile(ds, 0.99)),
			SelfShare:      ratio(float64(sum[name]), float64(rootTotal)),
			WaitPerRequest: wait[name] / int64(max(1, len(roots))),
		}
	}
	return out, roots
}

// treeErrors lists the requests whose spans' self times do not add up to
// their root span: with every child inside its parent, the self times of a
// request's spans partition its root interval exactly.
func treeErrors(spans []span) []int {
	st := selfTimes(spans)
	total := map[int]int64{}
	root := map[int]int64{}
	for i, s := range spans {
		total[s.Req] += st[i].self
		if s.Parent == 0 {
			root[s.Req] = s.dur()
		}
	}
	var bad []int
	for req, d := range root {
		if total[req] != d {
			bad = append(bad, req)
		}
	}
	sort.Ints(bad)
	return bad
}
