package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/stats"
)

// streamLen is the number of acquire+release pairs generated per load
// goroutine; a goroutine that gets through them starts again at the
// first, so every run replays whole rounds of the same operations.
const streamLen = 1 << 16

// leaseLen is the session lease every workload opens: longer than any
// run, so no lease lapses mid-run.
const leaseLen = time.Minute

// pairOp is one generated acquire+release pair.
type pairOp struct {
	name int32
	excl bool
}

// loadRand is load goroutine i's input generator for a seed.
func loadRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)*7919 + 1))
}

// uniformPairs draws n pairs with names uniform over [0, names) and the
// given share of shared (read) acquires.
func uniformPairs(rng *rand.Rand, n, names, sharedPct int) []pairOp {
	ops := make([]pairOp, n)
	for i := range ops {
		ops[i] = pairOp{name: int32(rng.Intn(names)), excl: rng.Intn(100) >= sharedPct}
	}
	return ops
}

// zipfPairs draws n pairs with Zipf(s)-skewed names over [0, names).
func zipfPairs(rng *rand.Rand, n, names int, s float64, sharedPct int) []pairOp {
	z := rand.NewZipf(rng, s, 1, uint64(names-1))
	ops := make([]pairOp, n)
	for i := range ops {
		ops[i] = pairOp{name: int32(z.Uint64()), excl: rng.Intn(100) >= sharedPct}
	}
	return ops
}

// lockNames returns n distinct lock names with the given prefix.
func lockNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s/%06d", prefix, i)
	}
	return names
}

// slices is the number of equal slices the measured window is cut into.
// Throughput and latency percentiles are taken per slice and reported as
// medians over the quietest slices (see quietSlices), so a stall of the
// shared host in one slice moves the result by at most one rank.
const slices = 10

// loopStats is one load goroutine's tally; it is read only after the
// goroutine has returned.
type loopStats struct {
	attempted, failed  int64
	acquired, released int64
	measured           int64                   // operations completed inside the window
	ops                [slices]int64           // ... per slice
	lat                [slices]stats.Histogram // ns, per slice
	rtt                stats.Histogram         // ns, client round trips inside the window
	late               stats.Histogram         // ns, generator lateness (open loop)
}

// observe counts ops operations completed at now, with latency lat, if
// now falls inside the window.
func (s *loopStats) observe(w *window, now time.Time, ops int64, lat time.Duration) bool {
	if !w.measuring() {
		return false
	}
	i := int(now.Sub(w.start) * slices / w.length)
	if i < 0 || i >= slices {
		return false
	}
	s.measured += ops
	s.ops[i] += ops
	s.lat[i].Add(uint64(lat))
	return true
}

func mergeStats(ls []loopStats) loopStats {
	var t loopStats
	for i := range ls {
		s := &ls[i]
		t.attempted += s.attempted
		t.failed += s.failed
		t.acquired += s.acquired
		t.released += s.released
		t.measured += s.measured
		for k := range t.ops {
			t.ops[k] += s.ops[k]
			t.lat[k].Merge(&s.lat[k])
		}
		t.rtt.Merge(&s.rtt)
		t.late.Merge(&s.late)
	}
	return t
}

// Window states.
const (
	stWarmup int32 = iota
	stMeasure
	stStop
)

// window steps the load goroutines through warmup, the measured window
// and stop, and remembers when the window opened and closed.
type window struct {
	state      atomic.Int32
	quit       chan struct{} // closed at stop
	stopOnce   sync.Once
	start, end time.Time
	length     time.Duration   // planned length of the window
	steal      [slices]float64 // share of the host's CPU time stolen, per slice
	p0, p1     procSample
}

func newWindow() *window { return &window{quit: make(chan struct{})} }

func (w *window) measuring() bool { return w.state.Load() == stMeasure }
func (w *window) stopped() bool   { return w.state.Load() == stStop }

func (w *window) stop() {
	w.stopOnce.Do(func() {
		w.state.Store(stStop)
		close(w.quit)
	})
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// stopTimeout is how long a load goroutine may take to notice stop. One
// that takes longer is waiting for a reply that never came.
const stopTimeout = 10 * time.Second

// runLoops runs n load goroutines through warmup, a window of e.dur and
// stop, and waits for all of them. onOpen and onClose are called as the
// window opens and closes, for counter snapshots. If a goroutine is
// still running stopTimeout after stop, abort is called to unblock it
// (by closing its connection) and a check failure is reported. A panic
// in a goroutine is returned as an error.
func runLoops(ctx context.Context, e *env, w *window, n int, loop func(i int) error, onOpen, onClose, abort func()) error {
	errc := make(chan error, n) // one send per goroutine
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errc <- guard(func() error { return loop(i) })
		}(i)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	var first error
	sleep := func(d time.Duration) bool {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-ctx.Done():
			first = ctx.Err()
		case err := <-errc:
			first = err
			if first == nil {
				first = fmt.Errorf("a load goroutine ended before stop")
			}
		}
		return false
	}
	if sleep(e.warmup) {
		e.setupDone()
		w.p0 = sampleProc()
		onOpen()
		w.length = e.dur
		w.start = time.Now()
		w.state.Store(stMeasure)
		full := true
		prev := readSteal()
		for k := 0; k < slices && full; k++ {
			full = sleep(time.Until(w.start.Add(e.dur * time.Duration(k+1) / slices)))
			cur := readSteal()
			w.steal[k] = cur.share(prev)
			prev = cur
		}
		if full {
			w.end = time.Now()
			w.state.Store(stStop)
			w.p1 = sampleProc()
			onClose()
		}
	}
	w.stop()

	t := time.NewTimer(stopTimeout)
	select {
	case <-done:
		t.Stop()
	case <-t.C:
		abort()
		<-done
		if first == nil {
			first = checkf("a load goroutine was still waiting for a reply %v after stop", stopTimeout)
		}
	}
	for len(errc) > 0 {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// guard runs fn, returning a panic as an error.
func guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// waitHook counts the grants that queued, through the manager's
// slow-acquire hook with a 1ns threshold. Traced runs install it.
type waitHook struct{ n, ns atomic.Int64 }

func (h *waitHook) install(cfg *lockmgr.Config) {
	cfg.SlowLock = time.Nanosecond
	cfg.SlowLockFn = func(_ string, _ uint64, _ bool, d time.Duration) {
		h.n.Add(1)
		h.ns.Add(int64(d))
	}
}

// layers sets the lockmgr wait metrics for a run that acquired acquires
// locks in total. A run in which no acquire queued leaves them unset,
// for the traced run to probe on a workload that queues.
func (h *waitHook) layers(o *outcome, acquires int64) {
	n := float64(h.n.Load())
	if n == 0 {
		return
	}
	o.layers["mgr_waits_per_kop"] = metric{ratio(n*1000, float64(acquires)), "count/kop"}
	o.layers["mgr_wait_mean_us"] = metric{ratio(float64(h.ns.Load())/1e3, n), "us"}
}

// quietSlices is how many of the window's slices the end-to-end numbers
// are taken from: the ones in which the hypervisor stole the least CPU
// time from the machine. A virtual CPU that is not running stalls every
// request in flight, so slices with heavy steal measure the neighbours,
// not the program; a change to the program moves every slice alike.
const quietSlices = slices / 2

// latencyMetrics sets ops_per_s and p50_us, and the p99 latency, as the
// medians over the window's quiet slices.
func latencyMetrics(o *outcome, w *window, t *loopStats) {
	idx := make([]int, slices)
	for k := range idx {
		idx[k] = k
	}
	sort.SliceStable(idx, func(a, b int) bool { return w.steal[idx[a]] < w.steal[idx[b]] })
	var rate, p50, p99 []float64
	var samples uint64
	sliceSecs := w.length.Seconds() / slices
	for _, k := range idx[:quietSlices] {
		rate = append(rate, float64(t.ops[k])/sliceSecs)
		p50 = append(p50, t.lat[k].Percentile(50)/1e3)
		p99 = append(p99, t.lat[k].Percentile(99)/1e3)
		samples += t.lat[k].Count()
	}
	o.e2e["ops_per_s"] = metric{stats.Median(rate), "1/s"}
	o.e2e["p50_us"] = metric{stats.Median(p50), "us"}
	// The tail is reported, but not as an end-to-end metric: on a shared
	// host it follows the hypervisor's steal more than the program.
	o.layers["latency_p99_us"] = metric{stats.Median(p99), "us"}
	var steal []string
	for k := range t.ops {
		steal = append(steal, fmt.Sprintf("%.1f", 100*w.steal[k]))
	}
	lo, hi := stats.MinMax(rate)
	o.note("window %.3fs in %d slices: %s ops; %d latency samples in the %d quietest slices, whose ops/s span %s..%s; p99 %.1fus",
		w.seconds(), slices, fmtCount(float64(t.measured)), samples, quietSlices, fmtCount(lo), fmtCount(hi), stats.Median(p99))
	o.note("host CPU stolen per slice (%%): %s", strings.Join(steal, " "))
}

// cpuTicks is the machine-wide CPU time from /proc/stat, in ticks.
type cpuTicks struct{ steal, total uint64 }

// readSteal reads the machine's stolen and total CPU ticks; zero where
// /proc/stat is not available.
func readSteal() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	line, _ := bufio.NewReader(f).ReadString('\n')
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	var t cpuTicks
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// share is the fraction of CPU time stolen between prev and t.
func (t cpuTicks) share(prev cpuTicks) float64 {
	return ratio(float64(t.steal-prev.steal), float64(t.total-prev.total))
}
