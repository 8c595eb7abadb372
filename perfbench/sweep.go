package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"fairrw/internal/apps"
	"fairrw/internal/core"
	"fairrw/internal/machine"
	"fairrw/internal/microbench"
	"fairrw/internal/stats"
	"fairrw/internal/stmbench"
	"fairrw/internal/swlocks"
)

// lcusim-sweep: a fixed, serial set of simulations with fixed seeds. The
// --seed flag does not change it: the simulator is deterministic, and the
// workload measures host speed on identical simulated work.
const (
	sweepThreads   = 16
	sweepIters     = 2000 // critical sections per microbenchmark point
	sweepSTMOps    = 20   // operations per thread per STM run
	sweepExclIters = 300  // critical sections per thread in the exclusion check
)

// simCase is one configuration of the sweep.
type simCase struct {
	kind  string // "micro", "stm", "app" or "excl"
	label string
	micro microbench.Config
	stm   stmbench.Workload
	app   apps.Config
	lock  string // the exclusion check's lock
}

// simOut is what a configuration produced. Every field is simulated
// state, so two runs of one configuration must agree exactly.
type simOut struct {
	cycles     uint64
	events     uint64
	messages   uint64
	cpcs       float64 // cycles per critical section (micro)
	violations int     // exclusion check
}

// sweepCases lists the sweep: Fig. 9/10 microbenchmark points, one
// Fig. 12-style RB-tree run per STM engine, one Fig. 13 application, and
// the mutual-exclusion check for the locks the paper compares.
func sweepCases() []simCase {
	var cs []simCase
	micro := func(model, lock string, w int) {
		cs = append(cs, simCase{kind: "micro", label: fmt.Sprintf("micro %s/%s w%d", model, lock, w),
			micro: microbench.Config{Model: model, Lock: lock, Threads: sweepThreads, WritePct: w, TotalIters: sweepIters, Seed: 1}})
	}
	for _, lock := range []string{"lcu", "ssb", "mcs", "mrsw"} {
		for _, w := range []int{100, 25} {
			micro("A", lock, w)
		}
	}
	for _, lock := range []string{"lcu", "ssb"} {
		for _, w := range []int{100, 25} {
			micro("B", lock, w)
		}
	}
	for _, eng := range []string{"swonly", "lcu", "fraser", "ssb"} {
		cs = append(cs, simCase{kind: "stm", label: "stm A/rb/" + eng,
			stm: stmbench.Workload{Model: "A", Engine: eng, Structure: "rb", MaxNodes: 1 << 10,
				Threads: sweepThreads, ReadPct: 75, OpsPerThr: sweepSTMOps, Seed: 42}})
	}
	cs = append(cs, simCase{kind: "app", label: "app cholesky/lcu",
		app: apps.Config{App: "cholesky", Lock: "lcu", Threads: 16, Seed: 1000}})
	for _, lock := range []string{"lcu", "ssb", "mcs"} {
		cs = append(cs, simCase{kind: "excl", label: "exclusion A/" + lock, lock: lock})
	}
	return cs
}

// simMachines are the two reusable machine models; every configuration
// resets the one it runs on.
type simMachines struct{ a, b *machine.Machine }

func newSimMachines() simMachines {
	return simMachines{a: microbench.NewMachine("A"), b: microbench.NewMachine("B")}
}

func (ms simMachines) model(name string) *machine.Machine {
	if name == "B" {
		return ms.b
	}
	return ms.a
}

func (c *simCase) run(ms simMachines) simOut {
	var out simOut
	var m *machine.Machine
	switch c.kind {
	case "micro":
		m = ms.model(c.micro.Model)
		r := microbench.RunOn(m, c.micro)
		out.cycles, out.cpcs = uint64(r.TotalCycles), r.CyclesPerCS
	case "stm":
		m = ms.model(c.stm.Model)
		out.cycles = uint64(stmbench.RunOn(m, c.stm).TotalCycles)
	case "app":
		m = ms.a
		m.Reset()
		core.New(m, core.Options{})
		out.cycles = uint64(apps.Run(m, c.app))
	case "excl":
		m = ms.a
		m.Reset()
		out.violations = exclusionRun(m, microbench.MakeLock(m, c.lock, 0), sweepThreads, sweepExclIters, 7)
		out.cycles = uint64(m.K.Now())
	}
	out.events, out.messages = m.K.Events(), m.Net.Sent
	return out
}

// exclusionRun is the benchmark's own critical-section driver on the
// simulated machine m (freshly reset, with l installed): threads take l
// in random read/write modes and count, inside the critical section, who
// else is in it. It returns the number of entries that saw a writer
// beside anyone else.
func exclusionRun(m *machine.Machine, l swlocks.RWLock, threads, iters int, seed int64) int {
	var readers, writers, violations int
	// Procs run one at a time under the kernel, so plain counters are
	// consistent; only the lock decides who is inside together.
	inside := func(write bool) {
		if writers > 1 || (writers == 1 && readers > 0) || (!write && writers > 0) {
			violations++
		}
	}
	for i := 0; i < threads; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		m.Spawn("excl", uint64(i+1), i%m.P.Cores, func(c *machine.Ctx) {
			for j := 0; j < iters; j++ {
				write := rng.Intn(2) == 0
				l.Lock(c, write)
				if write {
					writers++
				} else {
					readers++
				}
				inside(write)
				c.Compute(50)
				inside(write)
				if write {
					writers--
				} else {
					readers--
				}
				l.Unlock(c, write)
				c.Compute(50)
			}
		})
	}
	m.Run()
	return violations
}

// sweepRound runs every case once, timing each, and returns the outputs
// and host nanoseconds per case.
func sweepRound(ctx context.Context, cases []simCase, ms simMachines, tr *tracer) ([]simOut, []time.Duration, error) {
	outs := make([]simOut, len(cases))
	times := make([]time.Duration, len(cases))
	round := tr.begin("sweep.round", 0, noSpan)
	defer tr.end(round)
	for i := range cases {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		sp := tr.begin(spanName(cases[i].kind), 0, round)
		t0 := time.Now()
		outs[i] = cases[i].run(ms)
		times[i] = time.Since(t0)
		tr.end(sp)
	}
	return outs, times, nil
}

func spanName(kind string) string {
	switch kind {
	case "micro":
		return "microbench.RunOn"
	case "stm":
		return "stmbench.RunOn"
	case "app":
		return "apps.Run"
	}
	return "exclusion.Run"
}

// checkSweep checks one round's simulated results: no exclusion
// violation, and LCU faster than SSB per critical section at 100% writes
// on model A, the direction the paper reports.
func checkSweep(cases []simCase, outs []simOut) error {
	cpcs := map[string]float64{}
	for i, c := range cases {
		if outs[i].violations != 0 {
			return checkf("%s: %d critical-section entries saw a writer beside another holder", c.label, outs[i].violations)
		}
		if c.kind == "micro" && c.micro.Model == "A" && c.micro.WritePct == 100 {
			cpcs[c.micro.Lock] = outs[i].cpcs
		}
	}
	if !(cpcs["lcu"] > 0 && cpcs["lcu"] < cpcs["ssb"]) {
		return checkf("LCU %.1f cycles/CS is not below SSB %.1f at 100%% writes on model A", cpcs["lcu"], cpcs["ssb"])
	}
	return nil
}

// checkDeterminism compares a repeated round with the first: the same
// configurations must give the same cycles, events and messages.
func checkDeterminism(cases []simCase, first, again []simOut) error {
	for i := range cases {
		if first[i] != again[i] {
			return checkf("%s is not deterministic: %+v then %+v", cases[i].label, first[i], again[i])
		}
	}
	return nil
}

func runSweep(ctx context.Context, e *env) error {
	o := e.outcome
	cases := sweepCases()
	ms := newSimMachines()

	// The first round warms caches and the heap; it is checked but not timed.
	first, _, err := sweepRound(ctx, cases, ms, e.tr)
	if err != nil {
		return err
	}
	e.setupDone()
	o.attempted += int64(len(cases))
	if err := checkSweep(cases, first); err != nil {
		return err
	}
	var events, messages uint64
	for _, out := range first {
		events += out.events
		messages += out.messages
	}

	// Each round is a slice of the window: the end-to-end numbers come
	// from the half of the rounds with the least steal, as for the lock
	// workloads.
	type round struct {
		steal float64
		secs  float64
		times []time.Duration
	}
	var rs []round
	p0 := sampleProc()
	kindTime := map[string]time.Duration{}
	kindCalls := map[string]int{}
	for len(rs) < 2 || time.Since(p0.at) < e.dur {
		s0, t0 := readSteal(), time.Now()
		outs, times, err := sweepRound(ctx, cases, ms, e.tr)
		if err != nil {
			return err
		}
		rs = append(rs, round{readSteal().share(s0), time.Since(t0).Seconds(), times})
		o.attempted += int64(len(cases))
		if err := checkDeterminism(cases, first, outs); err != nil {
			return err
		}
		for i, d := range times {
			kindTime[cases[i].kind] += d
			kindCalls[cases[i].kind]++
		}
	}
	p1 := sampleProc()
	sort.SliceStable(rs, func(a, b int) bool { return rs[a].steal < rs[b].steal })
	quiet := rs[:len(rs)/2]
	var perCase []float64
	var quietSecs float64
	for _, r := range quiet {
		quietSecs += r.secs
		for _, d := range r.times {
			perCase = append(perCase, float64(d))
		}
	}
	rounds := len(rs)
	secs := p1.at.Sub(p0.at).Seconds()
	configs := float64(rounds * len(cases))
	o.e2e["ops_per_s"] = metric{float64(len(perCase)) / quietSecs, "1/s"}
	o.e2e["p50_us"] = metric{stats.Percentile(perCase, 50) / 1e3, "us"}
	o.layers["latency_p99_us"] = metric{stats.Percentile(perCase, 99) / 1e3, "us"}
	e.processMetrics(p0, p1, configs)
	simLayers(o, events, messages, rounds, p0, p1, kindTime, kindCalls)
	o.note("%d timed rounds of %d configurations in %.3fs; in the %d quietest rounds: sim wall per round %.3fs, host time per configuration p50 %.0fus p99 %.0fus",
		rounds, len(cases), secs, len(quiet), quietSecs/float64(len(quiet)), o.e2e["p50_us"].Value, o.layers["latency_p99_us"].Value)
	var steal []string
	for _, r := range rs {
		steal = append(steal, fmt.Sprintf("%.1f", 100*r.steal))
	}
	o.note("host CPU stolen per round, quietest first (%%): %s", strings.Join(steal, " "))
	return nil
}

// simLayers sets the simulator metrics for rounds timed rounds between
// samples p0 and p1, each of events kernel events and messages
// interconnect messages.
func simLayers(o *outcome, events, messages uint64, rounds int, p0, p1 procSample,
	kindTime map[string]time.Duration, kindCalls map[string]int) {
	total := float64(events) * float64(rounds)
	o.layers["sim_events"] = metric{float64(events), "count"}
	o.layers["sim_messages"] = metric{float64(messages), "count"}
	o.layers["sim_host_ns_per_event"] = metric{ratio(float64(p1.at.Sub(p0.at)), total), "ns"}
	o.layers["sim_allocs_per_event"] = metric{ratio(float64(p1.mallocs-p0.mallocs), total), "count"}
	for kind, name := range map[string]string{"micro": "sim_micro_s", "stm": "sim_stm_s", "app": "sim_apps_s"} {
		o.layers[name] = metric{ratio(kindTime[kind].Seconds(), float64(kindCalls[kind])), "s"}
	}
}
