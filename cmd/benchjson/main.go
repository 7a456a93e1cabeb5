// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON benchmark report, so CI can record the perf
// trajectory per PR as an artifact. The parsing lives in
// internal/benchjson so benchmark tests can emit reports directly.
//
// Usage:
//
//	go test ./internal/engine/ -run XXX -bench . | go run ./cmd/benchjson -o BENCH_hunt.json
//	... | go run ./cmd/benchjson -o BENCH_obs.json \
//	        -max-ratio 'BenchmarkObsFig4TraceOn/BenchmarkObsFig4TraceOff<=1.05'
//
// Each -max-ratio (repeatable) asserts one ns/op ratio between two
// benchmarks in the report; the computed ratios are written into the
// JSON and any violated bound makes the command exit non-zero after
// the report is written, so CI keeps the artifact for the failed run.
package main

import (
	"flag"
	"log"
	"os"

	"github.com/aiql/aiql/internal/benchjson"
)

// ratioFlags collects repeated -max-ratio specs.
type ratioFlags []string

func (r *ratioFlags) String() string     { return "" }
func (r *ratioFlags) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("o", "", "output file (default stdout)")
	var ratios ratioFlags
	flag.Var(&ratios, "max-ratio", "assert 'Numerator/Denominator<=Limit' on ns/op (repeatable)")
	flag.Parse()

	rep, err := benchjson.Parse(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	failed := false
	for _, spec := range ratios {
		r, err := rep.AssertRatio(spec)
		if err != nil {
			log.Fatal(err)
		}
		if r.Pass {
			log.Printf("ratio %s = %.3f <= %.3f", r.Name, r.Value, r.Limit)
		} else {
			log.Printf("ratio %s = %.3f EXCEEDS limit %.3f", r.Name, r.Value, r.Limit)
			failed = true
		}
	}
	if err := rep.WriteFile(*out); err != nil {
		log.Fatal(err)
	}
	if failed {
		os.Exit(1)
	}
}
