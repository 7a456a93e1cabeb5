// Package benchjson parses `go test -bench` output into a
// machine-readable JSON benchmark report, so CI can record the perf
// trajectory per PR as an artifact. Command benchjson wraps it for
// Makefile pipelines; benchmark tests use it directly to emit their
// report next to the regular test output.
package benchjson

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	MsPerOp    float64 `json:"ms_per_op"`
	// Metrics holds the line's remaining value/unit pairs by unit —
	// B/op and allocs/op under -benchmem, and whatever the benchmark
	// reported itself (allocs/row, probes/op, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Ratio is one asserted ns/op comparison between two benchmarks in the
// report, recorded in the artifact so CI history shows the margin, not
// just pass/fail.
type Ratio struct {
	Name  string  `json:"name"` // "Numerator/Denominator"
	Value float64 `json:"value"`
	Limit float64 `json:"limit"`
	Pass  bool    `json:"pass"`
}

// Report is the emitted document.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Ratios     []Ratio     `json:"ratios,omitempty"`
}

// ErrNoBenchmarks reports that the parsed stream held no benchmark
// result lines (e.g. the bench run failed before printing any).
var ErrNoBenchmarks = errors.New("benchjson: no benchmark lines found")

// Parse reads `go test -bench` output and collects every benchmark
// result line plus the goos/goarch/cpu header. It returns
// ErrNoBenchmarks when the stream held none.
func Parse(r io.Reader) (Report, error) {
	var rep Report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		// BenchmarkName-8   	       3	 123456789 ns/op [...]
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		iters, err1 := strconv.ParseInt(fields[1], 10, 64)
		ns, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		bm := Benchmark{
			Name:       fields[0],
			Iterations: iters,
			NsPerOp:    ns,
			MsPerOp:    ns / 1e6,
		}
		for k := 4; k+1 < len(fields); k += 2 {
			v, err := strconv.ParseFloat(fields[k], 64)
			if err != nil {
				break
			}
			if bm.Metrics == nil {
				bm.Metrics = map[string]float64{}
			}
			bm.Metrics[fields[k+1]] = v
		}
		rep.Benchmarks = append(rep.Benchmarks, bm)
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	if len(rep.Benchmarks) == 0 {
		return rep, ErrNoBenchmarks
	}
	return rep, nil
}

// find returns the first benchmark whose name matches exactly or up to
// the `-N` GOMAXPROCS suffix go test appends (BenchmarkX-8).
func (rep Report) find(name string) (Benchmark, bool) {
	for _, b := range rep.Benchmarks {
		if b.Name == name || strings.HasPrefix(b.Name, name+"-") {
			return b, true
		}
	}
	return Benchmark{}, false
}

// AssertRatio evaluates a "Numerator/Denominator<=Limit" spec against
// the report's ns/op figures, appends the outcome to rep.Ratios, and
// reports whether the bound held. It errors when the spec is malformed
// or names a benchmark the report does not contain — CI must fail on a
// gate that silently measured nothing.
func (rep *Report) AssertRatio(spec string) (Ratio, error) {
	names, limitStr, ok := strings.Cut(spec, "<=")
	if !ok {
		return Ratio{}, fmt.Errorf("benchjson: ratio spec %q, want Numerator/Denominator<=Limit", spec)
	}
	num, den, ok := strings.Cut(names, "/")
	if !ok || num == "" || den == "" {
		return Ratio{}, fmt.Errorf("benchjson: ratio spec %q, want Numerator/Denominator<=Limit", spec)
	}
	limit, err := strconv.ParseFloat(strings.TrimSpace(limitStr), 64)
	if err != nil || limit <= 0 {
		return Ratio{}, fmt.Errorf("benchjson: ratio spec %q: bad limit %q", spec, limitStr)
	}
	num, den = strings.TrimSpace(num), strings.TrimSpace(den)
	nb, ok := rep.find(num)
	if !ok {
		return Ratio{}, fmt.Errorf("benchjson: ratio spec %q: no benchmark %q in report", spec, num)
	}
	db, ok := rep.find(den)
	if !ok {
		return Ratio{}, fmt.Errorf("benchjson: ratio spec %q: no benchmark %q in report", spec, den)
	}
	if db.NsPerOp <= 0 {
		return Ratio{}, fmt.Errorf("benchjson: ratio spec %q: denominator %q has no ns/op", spec, den)
	}
	r := Ratio{
		Name:  num + "/" + den,
		Value: nb.NsPerOp / db.NsPerOp,
		Limit: limit,
	}
	r.Pass = r.Value <= limit
	rep.Ratios = append(rep.Ratios, r)
	return r, nil
}

// Encode marshals the report as indented JSON with a trailing newline.
func (rep Report) Encode() ([]byte, error) {
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}

// WriteFile writes the report to path ("" or "-" = stdout).
func (rep Report) WriteFile(path string) error {
	enc, err := rep.Encode()
	if err != nil {
		return err
	}
	if path == "" || path == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(rep.Benchmarks))
	return nil
}
