package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/aiql/aiql/internal/aiql/parser"
	"github.com/aiql/aiql/internal/concise"
	"github.com/aiql/aiql/internal/translate"
)

// log10s renders log10(seconds) the way the paper's figures plot it.
func log10s(d time.Duration) string {
	if d <= 0 {
		return "-inf"
	}
	return fmt.Sprintf("%+.2f", math.Log10(d.Seconds()))
}

func bar(d time.Duration, scale time.Duration) string {
	if d <= 0 || scale <= 0 {
		return ""
	}
	// logarithmic bar: one block per factor of ~10^(1/8) above 10µs
	n := int(math.Log10(d.Seconds()/10e-6) * 8)
	if n < 1 {
		n = 1
	}
	if n > 60 {
		n = 60
	}
	return strings.Repeat("#", n)
}

// RenderComparison renders a Figure-4/5 style table: per-query times,
// log10-transformed values, bars, totals, and speedups.
func RenderComparison(title string, timings []Timing, engines []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(&b, "%-6s", "query")
	for _, e := range engines {
		fmt.Fprintf(&b, "  %12s  %8s", e+" (ms)", "log10(s)")
	}
	fmt.Fprintf(&b, "  %s\n", "bar (log scale)")
	maxT := time.Duration(0)
	for _, t := range timings {
		for _, e := range engines {
			if t.Times[e] > maxT {
				maxT = t.Times[e]
			}
		}
	}
	for _, t := range timings {
		fmt.Fprintf(&b, "%-6s", t.Label)
		for _, e := range engines {
			fmt.Fprintf(&b, "  %12.3f  %8s", float64(t.Times[e])/1e6, log10s(t.Times[e]))
		}
		b.WriteString("\n")
		for _, e := range engines {
			fmt.Fprintf(&b, "      %-11s %s\n", e, bar(t.Times[e], maxT))
		}
	}
	tot := Totals(timings)
	b.WriteString(strings.Repeat("-", 72) + "\n")
	for _, e := range engines {
		fmt.Fprintf(&b, "total %-12s %12.1f ms\n", e, float64(tot[e])/1e6)
	}
	for _, e := range engines[1:] {
		fmt.Fprintf(&b, "speedup of %s over %s: %.1fx\n", engines[0], e, Speedup(timings, e))
	}
	return b.String()
}

// RunConciseness measures the conciseness metrics (E4) over a query set.
func RunConciseness(queries []Query) ([]ConcisenessRow, error) {
	var out []ConcisenessRow
	for _, q := range queries {
		row := ConcisenessRow{Label: q.Label}
		am, err := concise.MeasureAIQL(q.Text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Label, err)
		}
		row.AIQL = MetricsTriple(am)

		ast, err := parser.Parse(q.Text)
		if err != nil {
			return nil, err
		}
		sqlText, err := translate.ToSQL(ast)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Label, err)
		}
		sm, err := concise.MeasureSQL(sqlText)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Label, err)
		}
		row.SQL = MetricsTriple(sm)

		if q.Kind != "anomaly" {
			ast2, err := parser.Parse(q.Text)
			if err != nil {
				return nil, err
			}
			cy, err := translate.ToCypher(ast2)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.Label, err)
			}
			row.Cypher = MetricsTriple(concise.MeasureCypher(cy))
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderConciseness renders the E4 table with aggregate ratios, matching
// the paper's claim format ("SQL contains ≥3.0x more constraints, 3.5x
// more words, 5.2x more characters").
func RenderConciseness(rows []ConcisenessRow) string {
	var b strings.Builder
	b.WriteString("Query conciseness: AIQL vs SQL vs Cypher\n")
	b.WriteString("========================================\n")
	fmt.Fprintf(&b, "%-6s  %24s  %24s  %24s\n", "query",
		"AIQL (cons/words/chars)", "SQL (cons/words/chars)", "Cypher (cons/words/chars)")
	var aC, aW, aH, sC, sW, sH, cC, cW, cH int
	cyN := 0
	for _, r := range rows {
		cy := "-"
		if r.Cypher.Words > 0 {
			cy = fmt.Sprintf("%d / %d / %d", r.Cypher.Constraints, r.Cypher.Words, r.Cypher.Chars)
			cC += r.Cypher.Constraints
			cW += r.Cypher.Words
			cH += r.Cypher.Chars
			cyN++
		}
		fmt.Fprintf(&b, "%-6s  %24s  %24s  %24s\n", r.Label,
			fmt.Sprintf("%d / %d / %d", r.AIQL.Constraints, r.AIQL.Words, r.AIQL.Chars),
			fmt.Sprintf("%d / %d / %d", r.SQL.Constraints, r.SQL.Words, r.SQL.Chars),
			cy)
		aC += r.AIQL.Constraints
		aW += r.AIQL.Words
		aH += r.AIQL.Chars
		sC += r.SQL.Constraints
		sW += r.SQL.Words
		sH += r.SQL.Chars
	}
	div := func(x, y int) float64 {
		if y == 0 {
			return 0
		}
		return float64(x) / float64(y)
	}
	b.WriteString(strings.Repeat("-", 84) + "\n")
	fmt.Fprintf(&b, "SQL vs AIQL:    %.1fx constraints, %.1fx words, %.1fx characters\n",
		div(sC, aC), div(sW, aW), div(sH, aH))
	if cyN > 0 {
		fmt.Fprintf(&b, "Cypher vs AIQL: %.1fx constraints, %.1fx words, %.1fx characters (over %d translatable queries)\n",
			div(cC, aC), div(cW, aW), div(cH, aH), cyN)
	}
	return b.String()
}

// RenderScheduling renders the E6 ablation table.
func RenderScheduling(rows []SchedulingResult) string {
	var b strings.Builder
	b.WriteString("Query scheduling ablation (Figure-4 workload)\n")
	b.WriteString("==============================================\n")
	fmt.Fprintf(&b, "%-16s  %12s\n", "variant", "total (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s  %12.1f\n", r.Name, float64(r.Total)/1e6)
	}
	if len(rows) > 0 {
		b.WriteString("\nper-query times (ms):\n")
		var labels []string
		for l := range rows[0].PerQuery {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		fmt.Fprintf(&b, "%-6s", "query")
		for _, r := range rows {
			fmt.Fprintf(&b, "  %14s", r.Name)
		}
		b.WriteString("\n")
		for _, l := range labels {
			fmt.Fprintf(&b, "%-6s", l)
			for _, r := range rows {
				fmt.Fprintf(&b, "  %14.3f", float64(r.PerQuery[l])/1e6)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
