// Command benchmark is the repository's end-to-end benchmark: five
// investigation workloads driven in-process through the HTTP handler
// cmd/aiqlserver mounts, every result checked against a reference
// engine. See README.md for the workloads, the metrics and how to run.
//
//	go run -C benchmark . --workload hunt --seed 7 --seconds 6 --trace 0
//	go run -C benchmark . -compare a.jsonl b.jsonl
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
	"syscall"
	"time"
)

func main() {
	// Everything the benchmark starts hangs off this context.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	scale    string
	maxWall  time.Duration
	out      string
	logFile  string
	spec     string
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "investigate, hunt, live, scatter, bulk_load, or all (each workload, both passes)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same datasets and ops")
	fs.IntVar(&o.seconds, "seconds", 6, "length of the measured window")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
	fs.StringVar(&o.scale, "scale", "full", "dataset scale: full or tiny (smoke test)")
	fs.DurationVar(&o.maxWall, "max-wall", 170*time.Second, "abort one workload pass after this long")
	fs.StringVar(&o.out, "out", "out", "directory for span files and scratch data")
	fs.StringVar(&o.logFile, "log", "", "append each pass's result to this run log (input of -compare)")
	fs.StringVar(&o.spec, "spec", "../BENCHMARK.json", "benchmark declaration, for -compare's bounds")
	compare := fs.Bool("compare", false, "compare two run logs: -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			return 2
		}
		if err := compareLogs(stdout, o.spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	sz, ok := scales[o.scale]
	if !ok || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad -scale, -seconds or -trace")
		return 2
	}

	if o.workload != "all" {
		res, err := runPass(ctx, o, sz, o.workload, o.trace, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return emit(stdout, stderr, res)
	}
	// All five workloads, first pass then traced pass, one document.
	all := map[string]map[string]result{}
	code := 0
	for _, w := range workloadNames {
		all[w] = map[string]result{}
		for trace, key := range []string{"end_to_end", "per_layer"} {
			res, err := runPass(ctx, o, sz, w, trace, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", w, err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			all[w][key] = res
		}
	}
	if err := json.NewEncoder(stdout).Encode(all); err != nil {
		return 1
	}
	return code
}

// emit prints the result as the last line of standard output.
func emit(stdout, stderr io.Writer, res result) int {
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runPass runs one workload once, in a scratch directory of its own
// that is gone when it returns, under a wall-clock watchdog.
func runPass(parent context.Context, o options, sz sizing, workload string, trace int, stderr io.Writer) (result, error) {
	p, serving := plans()[workload]
	if !serving && workload != "bulk_load" {
		return result{}, fmt.Errorf("unknown workload %q", workload)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return result{}, err
	}
	root, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)

	// The watchdog cancels everything first, so that the deferred
	// clean-up runs; a pass that ignores the cancellation is cut off.
	ctx, cancel := context.WithTimeout(parent, o.maxWall)
	defer cancel()
	hard := time.AfterFunc(o.maxWall+20*time.Second, func() {
		os.RemoveAll(root)
		fmt.Fprintln(stderr, "benchmark: watchdog: pass did not stop, exiting")
		os.Exit(3)
	})
	defer hard.Stop()

	r := &run{workload: workload, seed: o.seed, window: time.Duration(o.seconds) * time.Second,
		sz: sz, root: root, log: stderr, began: time.Now()}
	var values map[string]float64
	defs := endToEnd
	switch {
	case trace == 1 && serving:
		values, err = r.traced(ctx, p, o.out)
		defs = perLayer
	case trace == 1:
		values, err = r.tracedBulk(ctx, o.out)
		defs = perLayer
	case serving:
		values, err = r.serving(ctx, p)
	default:
		values, err = r.bulkLoad(ctx)
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("watchdog: %s pass exceeded -max-wall %s", workload, o.maxWall)
		}
		return result{}, err
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s: metric %s was not measured", workload, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if o.logFile != "" {
		if err := appendLog(o.logFile, logLine{Workload: workload, Seed: o.seed, Trace: trace, Seconds: o.seconds, Result: res}); err != nil {
			return result{}, err
		}
	}
	return res, nil
}
