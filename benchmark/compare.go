package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// logLine is one pass in a run log: what -log appends and -compare reads.
type logLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Seconds  int    `json:"seconds"`
	Result   result `json:"result"`
}

func appendLog(path string, l logLine) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(l); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readLog(path string) ([]logLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []logLine
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l logLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, l)
	}
	return out, sc.Err()
}

// spec is BENCHMARK.json, as far as -compare and the tests read it.
type spec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(data, &s)
}

// side is one log's values of one metric on one workload.
type side struct {
	n      int
	median float64
	spread float64 // interquartile range as a share of the median
}

func summarise(vals sample) side {
	s := vals.sorted()
	out := side{n: len(s), median: quantile(s, 0.5)}
	if len(s) >= 4 && out.median != 0 {
		out.spread = (quartile(s, 3) - quartile(s, 1)) / out.median
	}
	return out
}

// quartile returns the i-th quartile of a sorted sample the way
// Python's statistics.quantiles(values, n=4) does (the exclusive
// method), which is how the driver computes a metric's spread.
func quartile(sorted sample, i int) float64 {
	n := len(sorted)
	j, delta := i*(n+1)/4, i*(n+1)%4
	j = min(max(j, 1), n-1)
	return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
}

// compareLogs prints one row per end-to-end metric and workload: both
// medians, b's ratio to a (its base), the bound, and the verdict.
//
//	ok          b is not worse than a by more than the bound
//	regressed   it is
//	unresolved  either side's run-to-run spread is wider than the bound,
//	            so the comparison cannot tell
func compareLogs(w io.Writer, specPath, aPath, bPath string) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	logs := [2][]logLine{}
	for i, p := range []string{aPath, bPath} {
		if logs[i], err = readLog(p); err != nil {
			return err
		}
	}
	collect := func(ls []logLine, workload, metric string, trace int) sample {
		var out sample
		for _, l := range ls {
			if m, ok := l.Result.Metrics[metric]; ok && l.Workload == workload && l.Trace == trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median (n, spread)\tb median (n, spread)\tb/a\tbound\tverdict")
	regressed := 0
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			a := summarise(collect(logs[0], wl.Name, m.Name, 0))
			b := summarise(collect(logs[1], wl.Name, m.Name, 0))
			if a.n == 0 || b.n == 0 {
				continue
			}
			r := ratio(b.median, a.median)
			worse := r - 1
			if m.Better == "higher" {
				worse = 1 - r
			}
			verdict := "ok"
			switch {
			case a.spread > m.Bound || b.spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g (%d, %.1f%%)\t%.4g (%d, %.1f%%)\t%.3f of %.4g\t%.0f%%\t%s\n",
				wl.Name, m.Name, m.Unit, a.median, a.n, 100*a.spread, b.median, b.n, 100*b.spread, r, a.median, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Validity: what the numbers above rest on.
	fmt.Fprintln(w, "\nvalidity (per workload, side a then b):")
	for _, wl := range sp.Workloads {
		for i, ls := range logs {
			var runs, attempted, failed int
			seeds := map[int64]bool{}
			for _, l := range ls {
				if l.Workload == wl.Name && l.Trace == 0 {
					runs++
					attempted += l.Result.Attempted
					failed += l.Result.Failed
					seeds[l.Seed] = true
				}
			}
			if runs == 0 {
				continue
			}
			var ss []int64
			for s := range seeds {
				ss = append(ss, s)
			}
			sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })
			fmt.Fprintf(w, "  %s %c: %d runs, seeds %v, %d ops attempted, %d failed\n",
				wl.Name, 'a'+i, runs, ss, attempted, failed)
			for _, name := range []string{"service.result_cache_hit_ratio", "engine.scan_cache_bytes",
				"eventstore.heap_bytes", "eventstore.block_cache_evictions"} {
				if v := collect(ls, wl.Name, name, 1); len(v) > 0 {
					fmt.Fprintf(w, "    %s median %.4g over %d traced runs\n", name, v.median(), len(v))
				}
			}
		}
	}
	fmt.Fprintln(w, "  sample counts, supported percentiles and open-loop generator lateness are printed on standard error by each run (lines starting \"validity:\").")
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}
