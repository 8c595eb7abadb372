package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/client"
	"fairrw/internal/lockmgr/wire"
	"fairrw/internal/machine"
	"fairrw/internal/microbench"
)

func isCheck(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}

func TestConservationRejectsUnbalancedBooks(t *testing.T) {
	if err := checkConservation(10, 10, 10, 10); err != nil {
		t.Fatalf("balanced books rejected: %v", err)
	}
	for _, c := range []struct {
		name               string
		acq, rel           int64
		grantDelta, relDel uint64
	}{
		{"manager granted more than clients saw", 10, 10, 11, 10},
		{"manager released less than clients saw", 10, 10, 10, 9},
		{"a grant was never released", 10, 9, 10, 9},
	} {
		if err := checkConservation(c.acq, c.rel, c.grantDelta, c.relDel); !isCheck(err) {
			t.Errorf("%s: got %v, want a check failure", c.name, err)
		}
	}
}

func TestCSGuardRejectsOverlap(t *testing.T) {
	var g csGuard
	if err := g.enter(true); err != nil {
		t.Fatal(err)
	}
	if err := g.enter(true); !isCheck(err) {
		t.Errorf("second writer: got %v, want a check failure", err)
	}
	var r csGuard
	if err := r.enter(false); err != nil {
		t.Fatal(err)
	}
	if err := r.enter(false); err != nil {
		t.Errorf("two readers rejected: %v", err)
	}
	if err := r.enter(true); !isCheck(err) {
		t.Errorf("writer beside readers: got %v, want a check failure", err)
	}
	var w csGuard
	w.writers.Store(1)
	if err := w.exit(false); !isCheck(err) {
		t.Errorf("reader leaving beside a writer: got %v, want a check failure", err)
	}
}

// noLock is a simulated lock that excludes nobody.
type noLock struct{}

func (noLock) Lock(*machine.Ctx, bool)   {}
func (noLock) Unlock(*machine.Ctx, bool) {}
func (noLock) Name() string              { return "none" }

func TestExclusionRunCatchesABrokenLock(t *testing.T) {
	m := microbench.NewMachine("A")
	if v := exclusionRun(m, noLock{}, 8, 20, 1); v == 0 {
		t.Error("a lock that excludes nobody passed the exclusion check")
	}
	m.Reset()
	if v := exclusionRun(m, microbench.MakeLock(m, "mcs", 0), 8, 20, 1); v != 0 {
		t.Errorf("MCS showed %d exclusion violations", v)
	}
}

func TestDeterminismCheckRejectsDrift(t *testing.T) {
	cases := []simCase{{label: "a"}, {label: "b"}}
	first := []simOut{{cycles: 10, events: 5, messages: 3}, {cycles: 7}}
	if err := checkDeterminism(cases, first, append([]simOut(nil), first...)); err != nil {
		t.Fatalf("identical rounds rejected: %v", err)
	}
	for _, again := range [][]simOut{
		{{cycles: 11, events: 5, messages: 3}, {cycles: 7}},
		{{cycles: 10, events: 6, messages: 3}, {cycles: 7}},
		{{cycles: 10, events: 5, messages: 4}, {cycles: 7}},
	} {
		if err := checkDeterminism(cases, first, again); !isCheck(err) {
			t.Errorf("%+v: got %v, want a check failure", again, err)
		}
	}
}

func TestSweepCheckRejectsPaperDirectionAndViolations(t *testing.T) {
	cases := []simCase{
		{kind: "micro", label: "lcu", micro: microbench.Config{Model: "A", Lock: "lcu", WritePct: 100}},
		{kind: "micro", label: "ssb", micro: microbench.Config{Model: "A", Lock: "ssb", WritePct: 100}},
		{kind: "excl", label: "excl"},
	}
	if err := checkSweep(cases, []simOut{{cpcs: 170}, {cpcs: 260}, {}}); err != nil {
		t.Fatalf("good round rejected: %v", err)
	}
	if err := checkSweep(cases, []simOut{{cpcs: 300}, {cpcs: 260}, {}}); !isCheck(err) {
		t.Errorf("LCU slower than SSB: got %v, want a check failure", err)
	}
	if err := checkSweep(cases, []simOut{{cpcs: 170}, {cpcs: 260}, {violations: 1}}); !isCheck(err) {
		t.Errorf("exclusion violation: got %v, want a check failure", err)
	}
}

func TestReplyCheckRejectsOutOfOrderReplies(t *testing.T) {
	doc := []byte(`{"shared_grants":3}`)
	if err := checkReply(expectPair, wire.Response{Status: wire.StatusOK}); err != nil {
		t.Errorf("pair reply rejected: %v", err)
	}
	if err := checkReply(expectMarker, wire.Response{Status: wire.StatusOK, Payload: doc}); err != nil {
		t.Errorf("marker reply rejected: %v", err)
	}
	if err := checkReply(expectPair, wire.Response{Status: wire.StatusOK, Payload: doc}); !isCheck(err) {
		t.Errorf("stats document where a pair reply belongs: got %v, want a check failure", err)
	}
	if err := checkReply(expectMarker, wire.Response{Status: wire.StatusOK}); !isCheck(err) {
		t.Errorf("empty reply where the stats document belongs: got %v, want a check failure", err)
	}
}

func TestAllFreeRejectsAHeldName(t *testing.T) {
	m := lockmgr.New(lockmgr.Config{})
	defer m.Close()
	names := lockNames("t", 4)
	if err := checkAllFree(m, names); err != nil {
		t.Fatalf("free names rejected: %v", err)
	}
	sid, err := m.Open(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(sid, names[2], false, 0); err != nil {
		t.Fatal(err)
	}
	if err := checkAllFree(m, names); !isCheck(err) {
		t.Errorf("a held name: got %v, want a check failure", err)
	}
}

// settle waits for the goroutine count to fall back to base.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines remain, started with %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func shortEnv() *env {
	return &env{seed: 3, dur: 300 * time.Millisecond, warmup: 50 * time.Millisecond, start: time.Now(), outcome: newOutcome()}
}

func TestWorkloadsLeaveNoGoroutines(t *testing.T) {
	for _, w := range workloads[:3] {
		t.Run(w.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := shortEnv()
			if err := runGuarded(context.Background(), w, e); err != nil {
				t.Fatal(err)
			}
			if e.outcome.attempted == 0 || e.outcome.failed != 0 {
				t.Errorf("attempted %d failed %d", e.outcome.attempted, e.outcome.failed)
			}
			for _, k := range []string{"setup_s", "ops_per_s", "p50_us", "max_rss_mb"} {
				if e.outcome.e2e[k].Value <= 0 {
					t.Errorf("%s = %v", k, e.outcome.e2e[k])
				}
			}
			settle(t, base)
		})
	}
}

func TestCancelledWorkloadLeavesNoGoroutines(t *testing.T) {
	for _, w := range workloads[:3] {
		t.Run(w.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			e := shortEnv()
			e.dur = time.Minute
			time.AfterFunc(200*time.Millisecond, cancel)
			if err := runGuarded(ctx, w, e); !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled", err)
			}
			settle(t, base)
		})
	}
}

func TestPanickingWorkloadLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	w := workload{name: "panics", run: func(ctx context.Context, e *env) error {
		st, err := startStack(lockmgr.Config{})
		if err != nil {
			return err
		}
		defer st.close()
		var d client.Dialer
		c, err := d.Dial(ctx, st.addr())
		if err != nil {
			return err
		}
		defer c.Close()
		if _, err := c.Open(time.Minute); err != nil {
			return err
		}
		panic("workload bug")
	}}
	if err := runGuarded(context.Background(), w, shortEnv()); err == nil || !strings.Contains(err.Error(), "workload bug") {
		t.Fatalf("got %v, want the panic as an error", err)
	}
	settle(t, base)
}

func TestRunPrintsResultLine(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"--workload", "lockmgr-contended", "--seconds", "0.3", "--seed", "2", "--out", ""}, &out, &errb)
	if code != exitOK {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool                       `json:"correct"`
		Attempted int64                      `json:"attempted"`
		Failed    int64                      `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != 4 {
		t.Errorf("result %+v", res)
	}
	if code := run(context.Background(), []string{"--workload", "nope"}, &out, &errb); code != exitUsage {
		t.Errorf("unknown workload: exit %d", code)
	}
}
