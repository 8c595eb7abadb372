package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"fairrw/internal/lockmgr"
)

// lockmgr-contended: goroutines calling the Manager directly on a few
// hot names.
const (
	mgrWorkers   = 2
	mgrNames     = 4
	mgrSharedPct = 50
	spanEvery    = 64 // traced runs record one pair in this many
)

// csGuard is the benchmark's own view of who is inside one lock's
// critical section. enter and exit report a writer beside anyone else.
type csGuard struct {
	readers, writers atomic.Int32
	_                [56]byte // one guard per cache line
}

func (g *csGuard) enter(excl bool) error {
	if excl {
		if w := g.writers.Add(1); w != 1 {
			return checkf("%d writers inside one critical section", w)
		}
		if r := g.readers.Load(); r != 0 {
			return checkf("a writer entered beside %d readers", r)
		}
		return nil
	}
	g.readers.Add(1)
	if w := g.writers.Load(); w != 0 {
		return checkf("a reader entered beside %d writers", w)
	}
	return nil
}

func (g *csGuard) exit(excl bool) error {
	if excl {
		if w, r := g.writers.Load(), g.readers.Load(); w != 1 || r != 0 {
			return checkf("a writer left with %d writers and %d readers inside", w, r)
		}
		g.writers.Add(-1)
		return nil
	}
	if w := g.writers.Load(); w != 0 {
		return checkf("a reader left beside %d writers", w)
	}
	g.readers.Add(-1)
	return nil
}

// contendedStreams generates each goroutine's schedule; the fairlock
// replay uses the same schedules.
func contendedStreams(seed int64) [][]pairOp {
	streams := make([][]pairOp, mgrWorkers)
	for i := range streams {
		streams[i] = uniformPairs(loadRand(seed, 100+i), streamLen, mgrNames, mgrSharedPct)
	}
	return streams
}

func runContended(ctx context.Context, e *env) error {
	o := e.outcome
	names := lockNames("hot", mgrNames)
	streams := contendedStreams(e.seed)
	var hook waitHook
	cfg := lockmgr.Config{}
	if e.tr != nil {
		hook.install(&cfg)
	}
	m := lockmgr.New(cfg)
	defer m.Close()
	sids := make([]uint64, mgrWorkers)
	for i := range sids {
		var err error
		if sids[i], err = m.Open(leaseLen); err != nil {
			return fmt.Errorf("open session: %w", err)
		}
	}
	guards := make([]csGuard, mgrNames)
	before := m.Stats()
	ls := make([]loopStats, mgrWorkers)
	w := newWindow()

	loop := func(i int) error {
		sid, ops, s := sids[i], streams[i], &ls[i]
		lane := int32(i)
		pos := 0
		for n := 0; !w.stopped(); n++ {
			op := ops[pos]
			if pos++; pos == len(ops) {
				pos = 0
			}
			name, g := names[op.name], &guards[op.name]
			traced := e.tr != nil && n%spanEvery == 0
			var pair, sp spanRef
			if traced {
				pair = e.tr.begin("pair", lane, noSpan)
				sp = e.tr.begin("lockmgr.Acquire", lane, pair)
			}
			t0 := time.Now()
			err := m.Acquire(sid, name, op.excl, -1)
			lat := time.Since(t0)
			if traced {
				e.tr.end(sp)
			}
			s.attempted += 2
			if err != nil {
				s.failed += 2 // the release is not attempted
				continue
			}
			s.acquired++
			if err := g.enter(op.excl); err != nil {
				return err
			}
			if err := g.exit(op.excl); err != nil {
				return err
			}
			if traced {
				sp = e.tr.begin("lockmgr.Release", lane, pair)
			}
			err = m.Release(sid, name, op.excl)
			if traced {
				e.tr.end(sp)
				e.tr.end(pair)
			}
			if err != nil {
				s.failed++
			} else {
				s.released++
			}
			s.observe(w, t0.Add(lat), 2, lat)
		}
		return nil
	}
	// Manager calls cannot hang on a lost reply; an unbounded wait ends
	// when Close revokes the sessions.
	err := runLoops(ctx, e, w, mgrWorkers, loop, func() {}, func() {}, m.Close)
	if err != nil {
		return err
	}
	t := mergeStats(ls)
	o.attempted, o.failed = t.attempted, t.failed
	after := m.Stats()
	if err := checkConservation(t.acquired, t.released,
		(after.SharedGrants+after.ExclGrants)-(before.SharedGrants+before.ExclGrants),
		after.Releases-before.Releases); err != nil {
		return err
	}
	if after.Waiting != 0 {
		return checkf("%d acquires still waiting after the run", after.Waiting)
	}
	if err := checkAllFree(m, names); err != nil {
		return err
	}
	for _, sid := range sids {
		if err := m.CloseSession(sid); err != nil {
			return fmt.Errorf("close session: %w", err)
		}
	}
	latencyMetrics(o, w, &t)
	e.processMetrics(w.p0, w.p1, float64(t.measured))
	hook.layers(o, t.acquired)
	o.note("p50/p99 are the time inside Manager.Acquire; ops count Acquire and Release calls")
	return nil
}
