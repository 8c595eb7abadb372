package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/client"
	"fairrw/internal/lockmgr/server"
	"fairrw/internal/lockmgr/wire"
)

// lockd-pipelined: a closed loop of deep pipelines over client.Conn.
const (
	pipeConns     = 2
	pipeDepth     = 64   // acquire+release pairs per Flush
	pipeNames     = 4096 // far more names than the manager's 16 shards; few enough to stay in its table
	pipeSharedPct = 90
)

// lockd-open: Poisson arrivals at a fixed rate over raw wire
// connections, one carrying acquires and one carrying releases.
const (
	openRate      = 20000 // pairs/s; see README for how it was chosen
	openNames     = 1024
	openZipfS     = 1.1
	openSharedPct = 50
	openSessions  = 256     // session pool: the most pairs that can be in flight
	openMarkEvery = 1024    // pairs between order markers (a stats request)
	openInflight  = 1 << 16 // expected replies queued between the goroutines: 3s of arrivals
)

// stack is the lock service under test: a Manager behind a Server on an
// ephemeral loopback port.
type stack struct {
	m      *lockmgr.Manager
	srv    *server.Server
	ln     net.Listener
	served chan error
}

func startStack(cfg lockmgr.Config) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	m := lockmgr.New(cfg)
	s := &stack{m: m, srv: server.NewWithConfig(m, server.Config{}), ln: ln, served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *stack) addr() string { return s.ln.Addr().String() }

// close drains the server (which closes the manager), waits for Serve
// to return and closes the listener, which Serve leaves open if the
// drain came first.
func (s *stack) close() {
	s.srv.Shutdown(2 * time.Second)
	<-s.served
	s.ln.Close()
}

// workerTotals sums the counters of every server worker.
func workerTotals(srv *server.Server) server.WorkerStats {
	var t server.WorkerStats
	for _, w := range srv.WorkerStats() {
		t.Wakeups += w.Wakeups
		t.Donations += w.Donations
		t.Batches += w.Batches
		t.BatchOps += w.BatchOps
		t.Parks += w.Parks
		t.FlushStalls += w.FlushStalls
		t.FwdOps += w.FwdOps
		t.Writevs += w.Writevs
		t.WritevBytes += w.WritevBytes
	}
	return t
}

// serverLayers sets the server metrics from counter snapshots a and b
// taken around a window in which ops wire operations completed.
func serverLayers(o *outcome, a, b server.WorkerStats, ops float64) {
	wake := float64(b.Wakeups - a.Wakeups)
	batchOps := float64(b.BatchOps - a.BatchOps)
	writevs := float64(b.Writevs - a.Writevs)
	o.layers["server_ops_per_wakeup"] = metric{ratio(batchOps, wake), "ops"}
	o.layers["server_ops_per_batch"] = metric{ratio(batchOps, float64(b.Batches-a.Batches)), "ops"}
	o.layers["server_bytes_per_writev"] = metric{ratio(float64(b.WritevBytes-a.WritevBytes), writevs), "B"}
	o.layers["server_writevs_per_kop"] = metric{ratio(writevs*1000, ops), "count/kop"}
	o.layers["server_donation_share"] = metric{ratio(float64(b.Donations-a.Donations), wake), "ratio"}
	o.layers["server_fwd_op_share"] = metric{ratio(float64(b.FwdOps-a.FwdOps), batchOps), "ratio"}
	o.layers["server_parks_per_kop"] = metric{ratio(float64(b.Parks-a.Parks)*1000, ops), "count/kop"}
	o.layers["server_flush_stalls"] = metric{float64(b.FlushStalls - a.FlushStalls), "count"}
}

// checkService runs the end-of-run checks shared by the lockd workloads,
// while the load sessions are still open: the grants the clients counted
// match the manager's grant delta, every grant was released, nothing
// waits, and every name is free.
func checkService(m *lockmgr.Manager, before lockmgr.Snapshot, acquired, released int64, names []string) error {
	after := m.Stats()
	if err := checkConservation(acquired, released,
		(after.SharedGrants+after.ExclGrants)-(before.SharedGrants+before.ExclGrants),
		after.Releases-before.Releases); err != nil {
		return err
	}
	if after.Waiting != 0 {
		return checkf("%d acquires still waiting after the run", after.Waiting)
	}
	return checkAllFree(m, names)
}

// checkAllFree takes and drops every name exclusively with a try
// acquire from a fresh session: it succeeds only if nobody holds the
// name and nobody is queued on it.
func checkAllFree(m *lockmgr.Manager, names []string) error {
	sid, err := m.Open(leaseLen)
	if err != nil {
		return fmt.Errorf("probe session: %w", err)
	}
	defer m.CloseSession(sid)
	for _, n := range names {
		if err := m.Acquire(sid, n, true, 0); err != nil {
			return checkf("name %q is not free after the run: %v", n, err)
		}
		if err := m.Release(sid, n, true); err != nil {
			return checkf("probe release of %q: %v", n, err)
		}
	}
	return nil
}

func runPipelined(ctx context.Context, e *env) error {
	o := e.outcome
	names := lockNames("p", pipeNames)
	streams := make([][]pairOp, pipeConns)
	for i := range streams {
		streams[i] = uniformPairs(loadRand(e.seed, i), streamLen, pipeNames, pipeSharedPct)
	}
	var hook waitHook
	cfg := lockmgr.Config{}
	if e.tr != nil {
		hook.install(&cfg)
	}
	st, err := startStack(cfg)
	if err != nil {
		return err
	}
	defer st.close()
	conns := make([]*client.Conn, pipeConns)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	sids := make([]uint64, pipeConns)
	var d client.Dialer
	for i := range conns {
		if conns[i], err = d.Dial(ctx, st.addr()); err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		if sids[i], err = conns[i].Open(leaseLen); err != nil {
			return fmt.Errorf("open session: %w", err)
		}
	}
	before := st.m.Stats()
	ls := make([]loopStats, pipeConns)
	w := newWindow()
	var ws0, ws1 server.WorkerStats

	loop := func(i int) error {
		c, sid, ops, s := conns[i], sids[i], streams[i], &ls[i]
		lane := int32(i)
		errs := make([]error, 0, 2*pipeDepth)
		pos := 0
		for !w.stopped() {
			round := e.tr.begin("round", lane, noSpan)
			q := e.tr.begin("client.Queue", lane, round)
			for k := 0; k < pipeDepth; k++ {
				op := ops[pos]
				if pos++; pos == len(ops) {
					pos = 0
				}
				name := names[op.name]
				if err := c.QueueAcquire(sid, name, op.excl, -1); err != nil {
					return err
				}
				if err := c.QueueRelease(sid, name, op.excl); err != nil {
					return err
				}
			}
			e.tr.end(q)
			f := e.tr.begin("client.Flush", lane, round)
			t0 := time.Now()
			var err error
			errs, err = c.Flush(errs[:0])
			rtt := time.Since(t0)
			e.tr.end(f)
			e.tr.end(round)
			if err != nil {
				return fmt.Errorf("flush: %w", err)
			}
			if len(errs) != 2*pipeDepth {
				return checkf("%d replies to %d pipelined requests", len(errs), 2*pipeDepth)
			}
			s.attempted += int64(len(errs))
			for k, opErr := range errs {
				switch {
				case opErr != nil:
					s.failed++
				case k%2 == 0:
					s.acquired++
				default:
					s.released++
				}
			}
			s.observe(w, t0.Add(rtt), int64(len(errs)), rtt)
		}
		return nil
	}
	// Only for a run that has already failed: a loop blocked in Flush
	// for a reply that never came. Closing the socket ends its read.
	abort := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	err = runLoops(ctx, e, w, pipeConns, loop,
		func() { ws0 = workerTotals(st.srv) },
		func() { ws1 = workerTotals(st.srv) },
		abort)
	if err != nil {
		return err
	}
	t := mergeStats(ls)
	o.attempted, o.failed = t.attempted, t.failed
	// A stray reply left on a connection would be read as the answer to
	// this synchronous call, whose reply must carry the stats document.
	for i, c := range conns {
		if err := checkStatsReply(c); err != nil {
			return fmt.Errorf("connection %d: %w", i, err)
		}
	}
	if err := checkService(st.m, before, t.acquired, t.released, names); err != nil {
		return err
	}
	for i, c := range conns {
		if err := c.CloseSession(sids[i]); err != nil {
			return fmt.Errorf("close session: %w", err)
		}
	}
	latencyMetrics(o, w, &t)
	e.processMetrics(w.p0, w.p1, float64(t.measured))
	o.layers["client_flush_rtt_p50_us"] = o.e2e["p50_us"]
	serverLayers(o, ws0, ws1, float64(t.measured))
	hook.layers(o, t.acquired)
	o.note("p50/p99 are the round trip of one Flush of %d pairs", pipeDepth)
	return nil
}

// checkStatsReply makes a synchronous stats call on c and checks that
// the reply carries the stats document.
func checkStatsReply(c *client.Conn) error {
	p, err := c.Stats()
	if err != nil {
		return fmt.Errorf("stats call: %w", err)
	}
	return checkStatsPayload(p)
}

func checkStatsPayload(p []byte) error {
	var doc struct {
		SharedGrants *uint64 `json:"shared_grants"`
	}
	if err := json.Unmarshal(p, &doc); err != nil || doc.SharedGrants == nil {
		return checkf("a stats request was answered with %d bytes that are not the stats document: replies are out of order or duplicated", len(p))
	}
	return nil
}

// rawConn speaks the wire protocol directly, so that one goroutine can
// send on schedule while another reads replies. client.Conn cannot: its
// Flush writes and then blocks until every reply has arrived.
type rawConn struct {
	nc   net.Conn
	br   *bufio.Reader
	rbuf []byte
	wbuf []byte
}

func dialRaw(ctx context.Context, addr string) (*rawConn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

func (r *rawConn) read() (wire.Response, error) {
	p, err := wire.ReadFrame(r.br, &r.rbuf)
	if err != nil {
		return wire.Response{}, err
	}
	return wire.DecodeResponse(p)
}

// call sends one request and reads its reply; only for use while no
// sender or reader goroutine runs on r.
func (r *rawConn) call(req *wire.Request) (wire.Response, error) {
	var err error
	if r.wbuf, err = wire.AppendRequestFrame(r.wbuf[:0], req); err != nil {
		return wire.Response{}, err
	}
	if _, err := r.nc.Write(r.wbuf); err != nil {
		return wire.Response{}, err
	}
	return r.read()
}

// Kinds of expected reply, in the order the sender wrote the requests.
const (
	expectPair   uint8 = iota // an acquire or a release: an empty reply
	expectMarker              // a stats request: an OK reply with the stats document
)

// expect is one request the reader must see answered, in order. Times
// are nanoseconds since the load's base time.
type expect struct {
	due, sent int64
	kind      uint8
	sid       uint64
	op        pairOp
}

// checkReply checks one reply against what its position in the stream
// requires: pairs get empty OK replies, markers the stats document.
func checkReply(kind uint8, resp wire.Response) error {
	switch kind {
	case expectPair:
		if len(resp.Payload) != 0 {
			return checkf("an acquire or release was answered with a %d-byte payload: replies are out of order", len(resp.Payload))
		}
	case expectMarker:
		if resp.Status != wire.StatusOK {
			return checkf("stats marker answered with status %d", resp.Status)
		}
		return checkStatsPayload(resp.Payload)
	}
	return nil
}

func runOpen(ctx context.Context, e *env) error {
	o := e.outcome
	names := lockNames("o", openNames)
	rng := loadRand(e.seed, 0)
	ops := zipfPairs(rng, streamLen, openNames, openZipfS, openSharedPct)
	gaps := make([]time.Duration, streamLen)
	for k := range gaps {
		gaps[k] = time.Duration(rng.ExpFloat64() / openRate * 1e9)
	}
	var hook waitHook
	cfg := lockmgr.Config{}
	if e.tr != nil {
		hook.install(&cfg)
	}
	st, err := startStack(cfg)
	if err != nil {
		return err
	}
	defer st.close()
	var acq, rel *rawConn
	defer func() {
		for _, c := range []*rawConn{acq, rel} {
			if c != nil {
				c.nc.Close()
			}
		}
	}()
	if acq, err = dialRaw(ctx, st.addr()); err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	if rel, err = dialRaw(ctx, st.addr()); err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	// A pool of sessions: an arrival takes a free one and its release
	// returns it, so no session ever acquires a name it still holds.
	free := make(chan uint64, openSessions)
	var sids []uint64
	for i := 0; i < openSessions; i++ {
		resp, err := acq.call(&wire.Request{Op: wire.OpOpen, Lease: int64(leaseLen)})
		if err != nil || resp.Status != wire.StatusOK {
			return fmt.Errorf("open session: status %d, %v", resp.Status, err)
		}
		sids = append(sids, resp.SID)
		free <- resp.SID
	}
	acqQ := make(chan expect, openInflight)
	relQ := make(chan expect, openInflight)
	before := st.m.Stats()
	ls := make([]loopStats, 3) // sender, acquire reader, release reader
	w := newWindow()
	var ws0, ws1 server.WorkerStats
	base := time.Now()

	// The sender waits for the next arrival by spinning on the clock,
	// which keeps its CPU from idling: on a virtual machine a sleeping
	// CPU can take milliseconds to wake, and that delay would be charged
	// to every latency. It writes each acquire on schedule, whatever
	// replies are outstanding.
	sender := func() error {
		defer close(acqQ)
		runtime.LockOSThread() // the spinning goroutine keeps one thread
		defer runtime.UnlockOSThread()
		s := &ls[0]
		pos, pairs := 0, 0
		next := base.Add(gaps[0])
		var sid uint64
		for !w.stopped() {
			now := time.Now()
			for now.Before(next) {
				now = time.Now()
			}
			s.late.Add(uint64(now.Sub(next)))
			sent := int64(now.Sub(base))
			sp := e.tr.begin("send", 0, noSpan)
			buf := acq.wbuf[:0]
			// Every request written has its expect queued first; stop
			// (or a reader that died with the queue full) ends the batch
			// early, and what was queued is still written.
			quit := false
			for !quit && !next.After(now) {
				if sid == 0 {
					select {
					case sid = <-free:
					default:
					}
				}
				if sid == 0 {
					// Every session is busy: write what is built, then
					// wait for one; the wait shows as lateness.
					if len(buf) > 0 {
						break
					}
					select {
					case sid = <-free:
					case <-w.quit:
						quit = true
						continue
					}
				}
				op := ops[pos]
				select {
				case acqQ <- expect{due: int64(next.Sub(base)), sent: sent, kind: expectPair, sid: sid, op: op}:
				case <-w.quit:
					quit = true
					continue
				}
				buf, _ = wire.AppendRequestFrame(buf, &wire.Request{ // valid by construction
					Op: wire.OpAcquire, SID: sid, Wait: -1, Excl: op.excl, Name: names[op.name]})
				sid = 0
				s.attempted += 2
				if pairs++; pairs%openMarkEvery == 0 {
					select {
					case acqQ <- expect{kind: expectMarker}:
						buf, _ = wire.AppendRequestFrame(buf, &wire.Request{Op: wire.OpStats})
					case <-w.quit:
						quit = true
					}
				}
				if pos++; pos == len(ops) {
					pos = 0
				}
				next = next.Add(gaps[pos])
			}
			acq.wbuf = buf
			_, err := acq.nc.Write(buf)
			e.tr.end(sp)
			if err != nil {
				return fmt.Errorf("send: %w", err)
			}
		}
		return nil
	}
	// The acquire reader releases each granted name on the other
	// connection: a release never queues behind an acquire that waits
	// for it.
	acqReader := func() error {
		defer close(relQ)
		s := &ls[1]
		for ex := range acqQ {
			resp, err := acq.read()
			if err != nil {
				return fmt.Errorf("read reply: %w", err)
			}
			if err := checkReply(ex.kind, resp); err != nil {
				return err
			}
			if ex.kind != expectPair {
				continue
			}
			if resp.Status != wire.StatusOK {
				s.failed += 2 // the release is not attempted
				free <- ex.sid
				continue
			}
			s.acquired++
			now := time.Now()
			s.rtt.Add(uint64(now.Sub(base) - time.Duration(ex.sent)))
			select {
			case relQ <- ex:
			default:
				// Full only if the release reader has stopped reading.
				select {
				case relQ <- ex:
				case <-w.quit:
					return fmt.Errorf("release reader stopped")
				}
			}
			rel.wbuf, _ = wire.AppendRequestFrame(rel.wbuf[:0], &wire.Request{ // valid by construction
				Op: wire.OpRelease, SID: ex.sid, Excl: ex.op.excl, Name: names[ex.op.name]})
			if _, err := rel.nc.Write(rel.wbuf); err != nil {
				return fmt.Errorf("send release: %w", err)
			}
		}
		return nil
	}
	relReader := func() error {
		s := &ls[2]
		for ex := range relQ {
			resp, err := rel.read()
			if err != nil {
				return fmt.Errorf("read reply: %w", err)
			}
			if err := checkReply(ex.kind, resp); err != nil {
				return err
			}
			if resp.Status != wire.StatusOK {
				s.failed++
			} else {
				s.released++
			}
			free <- ex.sid
			now := time.Now()
			if s.observe(w, now, 2, now.Sub(base)-time.Duration(ex.due)) {
				e.tr.record("pair", 1, base.Add(time.Duration(ex.sent)), now)
			}
		}
		return nil
	}
	loops := []func() error{sender, acqReader, relReader}
	err = runLoops(ctx, e, w, len(loops), func(i int) error { return loops[i]() },
		func() { ws0 = workerTotals(st.srv) },
		func() { ws1 = workerTotals(st.srv) },
		func() {
			acq.nc.Close()
			rel.nc.Close()
		})
	if err != nil {
		return err
	}
	t := mergeStats(ls)
	o.attempted, o.failed = t.attempted, t.failed
	for i, c := range []*rawConn{acq, rel} {
		resp, err := c.call(&wire.Request{Op: wire.OpStats})
		if err != nil {
			return fmt.Errorf("connection %d: stats call: %w", i, err)
		}
		if err := checkReply(expectMarker, resp); err != nil {
			return fmt.Errorf("connection %d: %w", i, err)
		}
	}
	if err := checkService(st.m, before, t.acquired, t.released, names); err != nil {
		return err
	}
	for _, sid := range sids {
		resp, err := acq.call(&wire.Request{Op: wire.OpClose, SID: sid})
		if err != nil || resp.Status != wire.StatusOK {
			return fmt.Errorf("close session: status %d, %v", resp.Status, err)
		}
	}
	latencyMetrics(o, w, &t)
	e.processMetrics(w.p0, w.p1, float64(t.measured))
	o.layers["client_flush_rtt_p50_us"] = metric{t.rtt.Percentile(50) / 1e3, "us"}
	serverLayers(o, ws0, ws1, float64(t.measured))
	hook.layers(o, t.acquired)
	o.note("p50/p99 are pair latency from the scheduled arrival to the release reply at %d pairs/s; generator lateness p50 %.1fus p99 %.1fus",
		openRate, t.late.Percentile(50)/1e3, t.late.Percentile(99)/1e3)
	return nil
}
