// Command perfbench is the repository's one benchmark. It drives the lock
// service (lockmgr behind an in-process lockd server, spoken to over
// loopback TCP) and the paper simulator (microbench, stmbench, apps over
// the machine/sim kernel) from a single process, checks their outputs, and
// prints every metric by name and unit.
//
//	perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics
// of a traced run instead. See README.md for the workloads, the metrics
// and the layer each one belongs to.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// procStart approximates the process start: package initialisation runs
// before main, and nothing the benchmark measures happens earlier.
var procStart = time.Now()

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int64
	e2e               map[string]metric // end-to-end metrics of the main run
	layers            map[string]metric // per-layer metrics (traced runs)
	notes             []string          // human-readable detail lines
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// checkError marks a failed correctness check, as opposed to an error
// that stopped the run (a signal, a socket that would not open).
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

func checkf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// env is what every workload receives.
type env struct {
	seed    int64
	dur     time.Duration // measured window
	warmup  time.Duration // untimed lead-in before the window
	start   time.Time     // the workload's start, for setup_s
	tr      *tracer       // nil in untraced runs
	outcome *outcome
}

// setupDone records setup_s: the time from the workload's start to its
// first timed operation, which comes after the untimed warmup.
func (e *env) setupDone() {
	e.outcome.e2e["setup_s"] = metric{time.Since(e.start).Seconds(), "s"}
}

type workload struct {
	name string
	run  func(ctx context.Context, e *env) error
}

var workloads = []workload{
	{"lockd-pipelined", runPipelined},
	{"lockd-open", runOpen},
	{"lockmgr-contended", runContended},
	{"lcusim-sweep", runSweep},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Exit codes.
const (
	exitOK      = 0
	exitCheck   = 1 // a correctness check failed; the result line says correct=false
	exitUsage   = 2
	exitAborted = 3 // interrupted or could not run; no result line
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	secs := fs.Float64("seconds", 10, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := fs.String("out", ".bench_out", "directory for the result JSON and trace files (empty = none)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 0 || *secs <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
		return exitUsage
	}
	var list []workload
	if *name == "all" {
		list = workloads
	} else if w, ok := findWorkload(*name); ok {
		list = []workload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return exitUsage
	}

	traced := *traceFlag == 1
	dur := time.Duration(*secs * float64(time.Second))
	correct := true
	var attempted, failed int64
	final := map[string]metric{}
	for i, w := range list {
		start := time.Now()
		if i == 0 {
			start = procStart
		}
		e := &env{seed: *seed, dur: dur, warmup: warmupFor(dur), start: start, outcome: newOutcome()}
		if traced {
			e.tr = newTracer()
		}
		err := runGuarded(ctx, w, e)
		var ce *checkError
		switch {
		case err == nil:
		case errors.As(err, &ce):
			correct = false
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		default:
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return exitAborted
		}
		o := e.outcome
		if traced && err == nil {
			if err := traceLayers(ctx, w.name, e); err != nil {
				if !errors.As(err, &ce) {
					fmt.Fprintf(stderr, "perfbench: %s: layer probes: %v\n", w.name, err)
					return exitAborted
				}
				correct = false
				fmt.Fprintf(stderr, "perfbench: %s: layer probes: %v\n", w.name, err)
			}
		}
		attempted += o.attempted
		failed += o.failed
		report := o.e2e
		if traced {
			report = o.layers
		}
		printOutcome(stdout, w.name, traced, o)
		for k, v := range report {
			if len(list) > 1 {
				k = w.name + "." + k
			}
			final[k] = v
		}
		if *outDir != "" {
			if err := writeFiles(*outDir, w.name, *seed, traced, o, e.tr); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, final})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return exitAborted
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return exitCheck
	}
	return exitOK
}

// warmupFor is the untimed lead-in before the measured window: long
// enough for connections, lock table entries and the heap to settle.
func warmupFor(dur time.Duration) time.Duration {
	return min(dur/10, 500*time.Millisecond)
}

// runGuarded runs one workload, turning a panic into an error. A
// workload releases what it holds with defers, which run while the
// panic unwinds, so the server, its listener and every connection are
// gone by the time runGuarded returns.
func runGuarded(ctx context.Context, w workload, e *env) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return w.run(ctx, e)
}

func printOutcome(w io.Writer, name string, traced bool, o *outcome) {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): attempted=%d failed=%d\n", name, kind, o.attempted, o.failed)
	for _, n := range o.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	printMetrics(w, "end-to-end", o.e2e)
	if traced {
		printMetrics(w, "per-layer", o.layers)
	}
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "   %s:\n", title)
	for _, k := range keys {
		fmt.Fprintf(w, "     %-28s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// writeFiles stores the run's result (and, for traced runs, its spans)
// under dir, named by workload, seed and mode.
func writeFiles(dir, name string, seed int64, traced bool, o *outcome, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("output directory: %w", err)
	}
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", name, seed, mode))
	doc := struct {
		Workload  string            `json:"workload"`
		Seed      int64             `json:"seed"`
		Traced    bool              `json:"traced"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		EndToEnd  map[string]metric `json:"end_to_end"`
		PerLayer  map[string]metric `json:"per_layer,omitempty"`
		Notes     []string          `json:"notes"`
	}{name, seed, traced, o.attempted, o.failed, o.e2e, nil, o.notes}
	if traced {
		doc.PerLayer = o.layers
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	if tr != nil {
		if err := tr.writeChrome(base + ".trace.json"); err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
	}
	return nil
}

// ratio returns a/b, or 0 when b is 0 (a layer the run did not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fmtCount renders a large count compactly for notes.
func fmtCount(n float64) string {
	switch {
	case math.Abs(n) >= 1e6:
		return fmt.Sprintf("%.2fM", n/1e6)
	case math.Abs(n) >= 1e3:
		return fmt.Sprintf("%.1fk", n/1e3)
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", n), "0"), ".")
}
