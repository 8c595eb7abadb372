package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"time"

	"fairrw/fairlock"
	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/wire"
	"fairrw/internal/sim"
	"fairrw/internal/stats"
)

// Sizes of the fixed-work layer replays in traced runs.
const (
	probeDur        = time.Second // lockd-pipelined / lockmgr-contended probes
	replayReps      = 4           // passes over the generated streams
	lockReplayPairs = 1 << 18     // pairs per goroutine on the bare locks
	procSwitches    = 1 << 18     // Wait calls per Proc in the ping-pong
	scheduleEvents  = 1 << 20     // Schedule+Run cycles
)

// traceLayers completes a traced run's per-layer metrics. The workload
// itself reported the layers it drives; every other layer is probed with
// the inputs of the workload that drives it, generated from the same
// seed, so each traced run reports the full layer set. The replays feed
// one layer at a time.
func traceLayers(ctx context.Context, name string, e *env) error {
	o := e.outcome
	have := func(prefix string) bool {
		for k := range o.layers {
			if strings.HasPrefix(k, prefix) {
				return true
			}
		}
		return false
	}
	probe := func(run func(context.Context, *env) error, prefixes ...string) error {
		pe := &env{seed: e.seed, dur: probeDur, warmup: warmupFor(probeDur), start: time.Now(),
			tr: newTracer(), outcome: newOutcome()}
		if err := run(ctx, pe); err != nil {
			return err
		}
		for k, v := range pe.outcome.layers {
			for _, p := range prefixes {
				if strings.HasPrefix(k, p) {
					o.layers[k] = v
				}
			}
		}
		return nil
	}
	if !have("server_") {
		if err := probe(runPipelined, "client_", "server_"); err != nil {
			return fmt.Errorf("lockd-pipelined probe: %w", err)
		}
	}
	if !have("mgr_wait") {
		if err := probe(runContended, "mgr_wait"); err != nil {
			return fmt.Errorf("lockmgr-contended probe: %w", err)
		}
	}
	if !have("sim_") {
		if err := simProbe(ctx, e); err != nil {
			return fmt.Errorf("simulator probe: %w", err)
		}
	}
	if err := replayWire(e, replayStreams(name, e.seed)); err != nil {
		return err
	}
	if err := replayExecBatch(e); err != nil {
		return err
	}
	if err := replayLocks(e); err != nil {
		return err
	}
	simMicro(e)
	for _, line := range e.tr.table() {
		o.note("%s", line)
	}
	return nil
}

// replayStreams returns the request stream the wire replay encodes:
// the workload's own when it speaks the wire protocol, otherwise
// lockd-pipelined's.
func replayStreams(name string, seed int64) wireStreams {
	if name == "lockd-open" {
		return wireStreams{names: lockNames("o", openNames),
			ops: [][]pairOp{zipfPairs(loadRand(seed, 0), streamLen, openNames, openZipfS, openSharedPct)}}
	}
	s := wireStreams{names: lockNames("p", pipeNames)}
	for i := 0; i < pipeConns; i++ {
		s.ops = append(s.ops, uniformPairs(loadRand(seed, i), streamLen, pipeNames, pipeSharedPct))
	}
	return s
}

type wireStreams struct {
	names []string
	ops   [][]pairOp
}

// replayWire encodes the stream's requests and their OK replies with the
// wire package, decodes them back, and checks that decoding returns what
// was encoded. It reports nanoseconds per operation for each direction.
func replayWire(e *env, s wireStreams) error {
	var reqs, resps []byte
	var encNS, decNS time.Duration
	var ops int
	for rep := 0; rep < replayReps; rep++ {
		for c, stream := range s.ops {
			sid := uint64(c + 1)
			reqs, resps = reqs[:0], resps[:0]
			encNS += e.tr.timed("wire.encode", int32(c), func() {
				ok := wire.Response{Status: wire.StatusOK}
				for _, op := range stream {
					req := wire.Request{Op: wire.OpAcquire, SID: sid, Wait: -1, Excl: op.excl, Name: s.names[op.name]}
					reqs, _ = wire.AppendRequestFrame(reqs, &req) // valid by construction
					req.Op = wire.OpRelease
					reqs, _ = wire.AppendRequestFrame(reqs, &req)
					resps, _ = wire.AppendResponseFrame(resps, &ok)
					resps, _ = wire.AppendResponseFrame(resps, &ok)
				}
			})
			var bad error
			decNS += e.tr.timed("wire.decode", int32(c), func() {
				var raw wire.RawRequest
				rp, sp := reqs, resps
				for i := 0; i < 2*len(stream); i++ {
					n := int(binary.BigEndian.Uint32(rp))
					if err := wire.DecodeRequestRaw(rp[4:4+n], &raw); err != nil && bad == nil {
						bad = err
					}
					op := stream[i/2]
					if (raw.Excl != op.excl || string(raw.Name) != s.names[op.name] || raw.SID != sid) && bad == nil {
						bad = checkf("request %d decoded as %+v", i, raw)
					}
					rp = rp[4+n:]
					n = int(binary.BigEndian.Uint32(sp))
					if resp, err := wire.DecodeResponse(sp[4 : 4+n]); (err != nil || resp.Status != wire.StatusOK) && bad == nil {
						bad = checkf("response %d decoded as %+v, %v", i, resp, err)
					}
					sp = sp[4+n:]
				}
			})
			if bad != nil {
				return fmt.Errorf("wire replay: %w", bad)
			}
			ops += 2 * len(stream)
		}
	}
	e.outcome.layers["wire_encode_ns_per_op"] = metric{float64(encNS) / float64(ops), "ns"}
	e.outcome.layers["wire_decode_ns_per_op"] = metric{float64(decNS) / float64(ops), "ns"}
	return nil
}

// replayExecBatch runs lockd-pipelined's generated batches, one
// connection's batch at a time, through Manager.ExecBatch.
func replayExecBatch(e *env) error {
	s := replayStreams("lockd-pipelined", e.seed)
	m := lockmgr.New(lockmgr.Config{})
	defer m.Close()
	sc := m.NewBatchScratch()
	names := make([][]byte, len(s.names))
	for i, n := range s.names {
		names[i] = []byte(n)
	}
	var batches [][]lockmgr.BatchOp
	for c, stream := range s.ops {
		sid, err := m.Open(leaseLen)
		if err != nil {
			return fmt.Errorf("execbatch replay: open: %w", err)
		}
		for i := 0; i+pipeDepth <= len(stream); i += pipeDepth {
			b := make([]lockmgr.BatchOp, 0, 2*pipeDepth)
			for _, op := range stream[i : i+pipeDepth] {
				b = append(b,
					lockmgr.BatchOp{Kind: lockmgr.BatchAcquire, Tag: int32(c), SID: sid, Excl: op.excl, Wait: -1, Name: names[op.name]},
					lockmgr.BatchOp{Kind: lockmgr.BatchRelease, Tag: int32(c), SID: sid, Excl: op.excl, Name: names[op.name]})
			}
			batches = append(batches, b)
		}
	}
	var total time.Duration
	ops := 0
	for rep := 0; rep < replayReps; rep++ {
		var bad error
		total += e.tr.timed("lockmgr.ExecBatch", 0, func() {
			for _, b := range batches {
				m.ExecBatch(b, sc)
				for i := range b {
					if b[i].Err != nil && bad == nil {
						bad = checkf("batch op %d failed: %v", i, b[i].Err)
					}
				}
				ops += len(b)
			}
		})
		if bad != nil {
			return fmt.Errorf("execbatch replay: %w", bad)
		}
	}
	e.outcome.layers["mgr_execbatch_ns_per_op"] = metric{float64(total) / float64(ops), "ns"}
	return nil
}

// rwLock is what the bare-lock replay needs of a lock.
type rwLock interface {
	Lock()
	Unlock()
	RLock()
	RUnlock()
}

// lockSchedule runs lockmgr-contended's schedules on bare locks, one
// goroutine per schedule, and returns the wall time per pair.
func lockSchedule(locks []rwLock, streams [][]pairOp, pairs int) (time.Duration, error) {
	guards := make([]csGuard, len(locks))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	t0 := time.Now()
	for g, stream := range streams {
		wg.Add(1)
		go func(g int, stream []pairOp) {
			defer wg.Done()
			for i := 0; i < pairs; i++ {
				op := stream[i%len(stream)]
				l, gd := locks[op.name], &guards[op.name]
				if op.excl {
					l.Lock()
				} else {
					l.RLock()
				}
				err := gd.enter(op.excl)
				if err == nil {
					err = gd.exit(op.excl)
				}
				if op.excl {
					l.Unlock()
				} else {
					l.RUnlock()
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g, stream)
	}
	wg.Wait()
	d := time.Since(t0) / time.Duration(pairs*len(streams))
	for _, err := range errs {
		if err != nil {
			return d, err
		}
	}
	return d, nil
}

// replayLocks times lockmgr-contended's schedule on fairlock.RWMutex and
// on sync.RWMutex, alternating, and reports the medians and their ratio.
func replayLocks(e *env) error {
	streams := contendedStreams(e.seed)
	var fair, std []float64
	for rep := 0; rep < 3; rep++ {
		fl := make([]rwLock, mgrNames)
		sl := make([]rwLock, mgrNames)
		for i := range fl {
			fl[i], sl[i] = new(fairlock.RWMutex), new(sync.RWMutex)
		}
		var d time.Duration
		var err error
		e.tr.timed("fairlock.schedule", 0, func() { d, err = lockSchedule(fl, streams, lockReplayPairs) })
		if err != nil {
			return fmt.Errorf("fairlock replay: %w", err)
		}
		fair = append(fair, float64(d))
		e.tr.timed("sync.schedule", 0, func() { d, err = lockSchedule(sl, streams, lockReplayPairs) })
		if err != nil {
			return fmt.Errorf("sync.RWMutex replay: %w", err)
		}
		std = append(std, float64(d))
	}
	f, s := stats.Median(fair), stats.Median(std)
	e.outcome.layers["fairlock_pair_ns"] = metric{f, "ns"}
	e.outcome.layers["sync_pair_ns"] = metric{s, "ns"}
	e.outcome.layers["fairlock_over_sync"] = metric{ratio(f, s), "ratio"}
	return nil
}

// simMicro times the simulation kernel's two primitives: a Proc switch
// (two Procs alternating Wait(1), so every Wait goes through the event
// queue) and Schedule + Run of a plain event with no Procs.
func simMicro(e *env) {
	k := sim.New()
	for i := 0; i < 2; i++ {
		k.Spawn("pingpong", func(p *sim.Proc) {
			for j := 0; j < procSwitches; j++ {
				p.Wait(1)
			}
		})
	}
	d := e.tr.timed("sim.ProcSwitch", 0, func() { k.Run() })
	e.outcome.layers["sim_proc_switch_ns"] = metric{float64(d) / float64(2*procSwitches), "ns"}

	k = sim.New()
	fn := func() {}
	for i := 0; i < 256; i++ {
		k.Schedule(sim.Time(i), fn)
	}
	d = e.tr.timed("sim.Schedule", 0, func() {
		for i := 0; i < scheduleEvents; i++ {
			k.Schedule(256, fn)
			k.RunUntil(k.Now() + 1)
		}
	})
	e.outcome.layers["sim_schedule_ns"] = metric{float64(d) / float64(scheduleEvents), "ns"}
}

// simProbe runs two rounds of the lcusim-sweep set (one to warm up, one
// timed) for the simulator metrics of a traced run that does not drive
// the simulator itself.
func simProbe(ctx context.Context, e *env) error {
	cases := sweepCases()
	ms := newSimMachines()
	first, _, err := sweepRound(ctx, cases, ms, nil)
	if err != nil {
		return err
	}
	p0 := sampleProc()
	outs, times, err := sweepRound(ctx, cases, ms, nil)
	if err != nil {
		return err
	}
	p1 := sampleProc()
	if err := checkDeterminism(cases, first, outs); err != nil {
		return err
	}
	var events, messages uint64
	kindTime := map[string]time.Duration{}
	kindCalls := map[string]int{}
	for i, out := range outs {
		events += out.events
		messages += out.messages
		kindTime[cases[i].kind] += times[i]
		kindCalls[cases[i].kind]++
	}
	simLayers(e.outcome, events, messages, 1, p0, p1, kindTime, kindCalls)
	return nil
}
