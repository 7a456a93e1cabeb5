// Command aiql executes Attack Investigation Query Language queries over
// a durable store directory (as written by aiqlgen or served by
// aiqlserver), either one-shot (-query / -file) or as an interactive
// REPL.
//
// Usage:
//
//	aiql -data ./data -query 'proc p read file f["%passwd%"] as e return distinct p, f'
//	aiql -data ./data            # REPL: terminate queries with a ';' line
//	aiql -data ./data -explain -query '...'
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"github.com/aiql/aiql/internal/experiments"
	"github.com/aiql/aiql/internal/obs"

	aiql "github.com/aiql/aiql"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aiql: ")
	var (
		data    = flag.String("data", "", "durable store directory (from aiqlgen); empty = built-in demo dataset")
		query   = flag.String("query", "", "one-shot query text")
		file    = flag.String("file", "", "read the query from a file")
		explain = flag.Bool("explain", false, "show the execution plan instead of running")
		stats   = flag.Bool("stats", true, "print execution statistics after results")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		b := obs.Build()
		fmt.Printf("aiql %s (%s)\n", b.Version, b.GoVersion)
		return
	}

	db := openDB(*data)
	st := db.Stats()
	fmt.Fprintf(os.Stderr, "loaded %d events across %d chunks (%d processes, %d files, %d connections)\n",
		st.Events, st.Partitions, st.Processes, st.Files, st.Netconns)

	switch {
	case *query != "":
		run(db, *query, *explain, *stats)
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			log.Fatal(err)
		}
		run(db, string(b), *explain, *stats)
	default:
		repl(db, *explain, *stats)
	}
}

func openDB(path string) *aiql.DB {
	if path == "" {
		fmt.Fprintln(os.Stderr, "no -data given; generating the built-in demo dataset (50k events, demo-apt scenario)")
		return aiql.FromStore(experiments.BuildStore(experiments.Fig4Dataset(50000, 10, 42)))
	}
	// A path that does not exist is a typo, not a request for an empty
	// store: OpenDir would create one.
	if _, err := os.Stat(path); err != nil {
		log.Fatal(err)
	}
	db, err := aiql.OpenDir(path)
	if err != nil {
		log.Fatal(err)
	}
	return db
}

func run(db *aiql.DB, src string, explain, stats bool) {
	if explain {
		plan, err := db.Explain(src)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(plan)
		return
	}
	start := time.Now()
	res, err := db.Query(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Table())
	if stats {
		fmt.Fprintf(os.Stderr, "\n%d rows in %v (scanned %d events, order %v)\n",
			len(res.Rows), time.Since(start).Round(time.Microsecond),
			res.Stats.ScannedEvents, res.Stats.PatternOrder)
	}
}

func repl(db *aiql.DB, explain, stats bool) {
	fmt.Fprintln(os.Stderr, `AIQL interactive shell — end a query with a line containing only ';'
commands: \explain (toggle), \stats (toggle), \quit`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var buf []string
	prompt := func() { fmt.Fprint(os.Stderr, "aiql> ") }
	prompt()
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case `\quit`, `\q`:
			return
		case `\explain`:
			explain = !explain
			fmt.Fprintf(os.Stderr, "explain mode: %v\n", explain)
			prompt()
			continue
		case `\stats`:
			stats = !stats
			fmt.Fprintf(os.Stderr, "stats: %v\n", stats)
			prompt()
			continue
		case ";":
			src := strings.Join(buf, "\n")
			buf = buf[:0]
			if strings.TrimSpace(src) != "" {
				func() {
					defer func() {
						if r := recover(); r != nil {
							fmt.Fprintf(os.Stderr, "panic: %v\n", r)
						}
					}()
					if err := aiql.Check(src); err != nil {
						fmt.Fprintf(os.Stderr, "error: %v\n", err)
						return
					}
					runSafe(db, src, explain, stats)
				}()
			}
			prompt()
			continue
		default:
			buf = append(buf, line)
			continue
		}
	}
}

func runSafe(db *aiql.DB, src string, explain, stats bool) {
	if explain {
		plan, err := db.Explain(src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return
		}
		fmt.Print(plan)
		return
	}
	start := time.Now()
	res, err := db.Query(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	fmt.Print(res.Table())
	if stats {
		fmt.Fprintf(os.Stderr, "%d rows in %v\n", len(res.Rows), time.Since(start).Round(time.Microsecond))
	}
}
