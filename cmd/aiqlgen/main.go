// Command aiqlgen generates synthetic enterprise system-monitoring
// datasets with the paper's APT attack scenarios injected, and writes
// each as a durable store directory (segment files + MANIFEST) that
// aiql -data and aiqlserver -data / -datasets open directly. The
// target must not already hold a store.
//
// Usage:
//
//	aiqlgen -out ./data -events 400000 -hosts 15 -seed 42 -scenarios demo-apt,atc-case
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"github.com/aiql/aiql/internal/datagen"
	"github.com/aiql/aiql/internal/eventstore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aiqlgen: ")
	var (
		out       = flag.String("out", "data", "output store directory (created; must not already hold a store)")
		events    = flag.Int("events", 100000, "approximate number of background events")
		hosts     = flag.Int("hosts", 10, "number of hosts (agents); servers occupy IDs 1-4")
		seed      = flag.Int64("seed", 42, "random seed")
		scenarios = flag.String("scenarios", "demo-apt", "comma-separated attack scenarios to inject (demo-apt, atc-case, none)")
	)
	flag.Parse()

	var scs []datagen.Scenario
	for _, s := range strings.Split(*scenarios, ",") {
		switch strings.TrimSpace(s) {
		case "demo-apt":
			scs = append(scs, datagen.ScenarioDemoAPT)
		case "atc-case":
			scs = append(scs, datagen.ScenarioATCCase)
		case "none", "":
		default:
			log.Fatalf("unknown scenario %q (use demo-apt, atc-case, none)", s)
		}
	}

	store := eventstore.New(eventstore.DefaultOptions())
	n := datagen.GenerateInto(store, datagen.Config{
		Seed:      *seed,
		Hosts:     *hosts,
		Events:    *events,
		Scenarios: scs,
	})
	if err := store.SaveDir(*out); err != nil {
		log.Fatal(err)
	}
	st := store.Stats()
	fmt.Printf("wrote %s: %d events, %d hosts, %d chunks, %d processes, %d files, %d connections (~%.1f MB in memory)\n",
		*out, n, *hosts, st.Partitions, st.Processes, st.Files, st.Netconns, float64(st.ApproxBytes)/1e6)
}
