package benchjson

import (
	"errors"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: github.com/aiql/aiql/internal/engine
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkScanColdSequential 	      10	    213449 ns/op	       0 B/op	       0 allocs/op
BenchmarkScanColdWorkers4-8 	      10	     77741 ns/op	         1.500 allocs/row	   12672 B/op	       7 allocs/op
some stray log line
BenchmarkBroken 	 notanumber 	 x ns/op
PASS
ok  	github.com/aiql/aiql/internal/engine	0.247s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("header = %q/%q/%q", rep.GOOS, rep.GOARCH, rep.CPU)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2 (malformed line must be skipped)", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[1]
	if b.Name != "BenchmarkScanColdWorkers4-8" || b.Iterations != 10 || b.NsPerOp != 77741 {
		t.Errorf("benchmark 1 = %+v", b)
	}
	if b.MsPerOp != b.NsPerOp/1e6 {
		t.Errorf("MsPerOp = %v, want %v", b.MsPerOp, b.NsPerOp/1e6)
	}
	if m := b.Metrics; len(m) != 3 || m["allocs/row"] != 1.5 || m["B/op"] != 12672 || m["allocs/op"] != 7 {
		t.Errorf("metrics = %v, want the reported allocs/row plus -benchmem's B/op and allocs/op", m)
	}
}

func TestParseNoBenchmarks(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok\n")); !errors.Is(err, ErrNoBenchmarks) {
		t.Fatalf("want ErrNoBenchmarks, got %v", err)
	}
}

func TestEncodeRoundTrips(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	enc, err := rep.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out := string(enc)
	if !strings.HasSuffix(out, "\n") {
		t.Error("encoded report must end in a newline")
	}
	for _, want := range []string{`"goos": "linux"`, `"ns_per_op": 213449`, `"BenchmarkScanColdWorkers4-8"`} {
		if !strings.Contains(out, want) {
			t.Errorf("encoded report missing %s", want)
		}
	}
}

func TestAssertRatio(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	// 77741 / 213449 ≈ 0.364 — passes a 1.05 bound; suffix "-8" on the
	// numerator must resolve from the bare name.
	r, err := rep.AssertRatio("BenchmarkScanColdWorkers4/BenchmarkScanColdSequential<=1.05")
	if err != nil {
		t.Fatalf("AssertRatio: %v", err)
	}
	if !r.Pass || r.Value < 0.36 || r.Value > 0.37 || r.Limit != 1.05 {
		t.Errorf("ratio = %+v", r)
	}
	// Inverted ratio ≈ 2.75 — must fail the bound without erroring.
	r, err = rep.AssertRatio("BenchmarkScanColdSequential/BenchmarkScanColdWorkers4<=1.05")
	if err != nil {
		t.Fatalf("AssertRatio inverted: %v", err)
	}
	if r.Pass || r.Value < 2.7 || r.Value > 2.8 {
		t.Errorf("inverted ratio = %+v", r)
	}
	if len(rep.Ratios) != 2 {
		t.Errorf("report recorded %d ratios, want 2", len(rep.Ratios))
	}
	enc, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(enc), `"ratios"`) {
		t.Error("encoded report missing ratios block")
	}

	for _, bad := range []string{
		"no-limit-separator",
		"OnlyOneName<=1.05",
		"A/B<=zero",
		"A/B<=-1",
		"BenchmarkMissing/BenchmarkScanColdSequential<=1.05",
		"BenchmarkScanColdSequential/BenchmarkMissing<=1.05",
	} {
		if _, err := rep.AssertRatio(bad); err == nil {
			t.Errorf("AssertRatio(%q) succeeded; want error", bad)
		}
	}
}
