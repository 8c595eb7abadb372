package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// maxSpans bounds the spans kept for the trace file; spans past it are
// still counted in the per-name totals.
const maxSpans = 1 << 18

// span is one timed call into a layer, recorded from the benchmark side
// of the call. Times are nanoseconds since the tracer's base.
type span struct {
	name       string
	lane       int32 // load-driving goroutine (connection) that made the call
	parent     int32 // index of the enclosing span, -1 at the top
	start, end int64
}

// spanTotal aggregates every span of one name, kept or not.
type spanTotal struct {
	count   int64
	totalNS int64
	childNS int64 // time covered by child spans, for self time
}

// tracer records spans in memory; it writes them out when the run ends.
// All methods are safe on a nil *tracer and do nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	base   time.Time
	mu     sync.Mutex
	spans  []span
	totals map[string]*spanTotal
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), totals: map[string]*spanTotal{}}
}

// spanRef identifies an open span. The zero value means "no parent".
type spanRef struct {
	idx    int32 // index in spans, or -1 when not kept
	name   string
	parent string // enclosing span's name, "" at the top
	start  int64
}

var noSpan = spanRef{idx: -1}

// begin opens a span inside parent (noSpan at the top level).
func (t *tracer) begin(name string, lane int32, parent spanRef) spanRef {
	if t == nil {
		return noSpan
	}
	r := spanRef{idx: -1, name: name, parent: parent.name}
	t.mu.Lock()
	r.start = int64(time.Since(t.base))
	if len(t.spans) < maxSpans {
		r.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, lane: lane, parent: parent.idx, start: r.start, end: r.start})
	}
	t.mu.Unlock()
	return r
}

// end closes a span opened by begin.
func (t *tracer) end(r spanRef) {
	if t == nil {
		return
	}
	t.mu.Lock()
	now := int64(time.Since(t.base))
	d := now - r.start
	if r.idx >= 0 {
		t.spans[r.idx].end = now
	}
	t.total(r.name).count++
	t.total(r.name).totalNS += d
	if r.parent != "" {
		t.total(r.parent).childNS += d
	}
	t.mu.Unlock()
}

// record adds a top-level span that has already ended.
func (t *tracer) record(name string, lane int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s, d := int64(start.Sub(t.base)), int64(end.Sub(start))
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{name: name, lane: lane, parent: -1, start: s, end: s + d})
	}
	t.total(name).count++
	t.total(name).totalNS += d
	t.mu.Unlock()
}

func (t *tracer) total(name string) *spanTotal {
	tot := t.totals[name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[name] = tot
	}
	return tot
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, lane int32, fn func()) time.Duration {
	r := t.begin(name, lane, noSpan)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(r)
	return d
}

// table renders per-name totals: count, total and self time.
func (t *tracer) table() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.totals))
	for n := range t.totals {
		names = append(names, n)
	}
	sort.Strings(names)
	out := []string{fmt.Sprintf("%-26s %10s %12s %12s", "span", "count", "total_ms", "self_ms")}
	for _, n := range names {
		tot := t.totals[n]
		out = append(out, fmt.Sprintf("%-26s %10d %12.3f %12.3f", n, tot.count,
			float64(tot.totalNS)/1e6, float64(tot.totalNS-tot.childNS)/1e6))
	}
	return out
}

// writeChrome writes the kept spans in the Chrome trace-event format
// (load in chrome://tracing or ui.perfetto.dev).
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"traceEvents\":[\n")
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}%s\n",
			s.name, s.lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// procSample is a point reading of the process's own resource use.
type procSample struct {
	at        time.Time
	user, sys time.Duration
	mallocs   uint64
	maxRSSKB  int64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		at:       time.Now(),
		user:     time.Duration(ru.Utime.Nano()),
		sys:      time.Duration(ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		maxRSSKB: ru.Maxrss,
	}
}

// processMetrics fills the process-layer numbers for the window a..b in
// which ops operations completed, and the run's peak resident memory.
func (e *env) processMetrics(a, b procSample, ops float64) {
	o := e.outcome
	o.layers["cpu_user_us_per_op"] = metric{ratio(float64(b.user-a.user)/1e3, ops), "us"}
	o.layers["cpu_sys_us_per_op"] = metric{ratio(float64(b.sys-a.sys)/1e3, ops), "us"}
	o.layers["allocs_per_op"] = metric{ratio(float64(b.mallocs-a.mallocs), ops), "count"}
	o.e2e["max_rss_mb"] = metric{float64(sampleProc().maxRSSKB) / 1024, "MB"}
	o.note("process CPU %.3fs user + %.3fs sys over %.3fs wall: %.4g us/op",
		(b.user - a.user).Seconds(), (b.sys - a.sys).Seconds(), b.at.Sub(a.at).Seconds(),
		ratio(float64(b.user-a.user+b.sys-a.sys)/1e3, ops))
}
