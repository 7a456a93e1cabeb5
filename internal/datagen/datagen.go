// Package datagen synthesizes enterprise system-monitoring data: multi-
// host background workloads (services, interactive sessions, builds, web
// traffic) with the paper's two APT attack scenarios injected as ground
// truth. Generation is fully deterministic under a seed, so experiments
// and tests are reproducible.
//
// This package substitutes for the paper's production deployment (auditd/
// ETW/DTrace agents on 150 enterprise hosts): the query engines consume
// identical SVO event streams, and the generator reproduces the data
// characteristics the optimizations exploit — heavy skew toward a few
// busy system processes, strong spatial/temporal locality, and attack
// traces that are vanishingly rare relative to background noise.
package datagen

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/sysmon"
)

// Scenario selects an attack trace to inject.
type Scenario string

// The two APT scenarios of the paper.
const (
	// ScenarioDemoAPT is the five-step attack of the demo (Figure 2):
	// IRC exploit, malware infection, privilege escalation, credential
	// dumping on the domain controller, and database exfiltration.
	ScenarioDemoAPT Scenario = "demo-apt"
	// ScenarioATCCase is the APT case study of the underlying ATC'18
	// paper (Figure 5's workload): phishing delivery, backdoor download,
	// privilege escalation, lateral movement, and document exfiltration.
	ScenarioATCCase Scenario = "atc-case"
)

// Well-known agents and endpoints of the generated enterprise. Agent IDs
// below FirstWorkstation are servers.
const (
	AgentWebServer   = 1 // Linux web/IRC server (demo entry point)
	AgentDBServer    = 2 // Windows SQL database server
	AgentDC          = 3 // Windows domain controller
	AgentFileServer  = 4 // Windows file server (ATC exfil source)
	FirstWorkstation = 5

	// AttackerIP receives exfiltrated data in both scenarios ("XXX.129").
	AttackerIP = "203.0.113.129"
	// ATCAttackerIP is the ATC scenario's command-and-control host.
	ATCAttackerIP = "198.51.100.77"
)

// Attack timing inside the generated day.
const (
	DemoAttackHour = 13 // demo APT runs 13:00–14:00
	ATCAttackHour  = 15 // ATC case runs 15:00–16:00
)

// DefaultStart is the first instant of the generated timeline, matching
// the paper's obfuscated "mm/dd/2018" window.
var DefaultStart = time.Date(2018, 5, 10, 0, 0, 0, 0, time.UTC)

// Config controls generation.
type Config struct {
	Seed      int64
	Hosts     int           // number of agents; servers occupy IDs 1..4
	Events    int           // approximate number of background events
	Start     time.Time     // timeline start (DefaultStart when zero)
	Duration  time.Duration // timeline span (24h when zero)
	Scenarios []Scenario
}

func (c Config) normalized() Config {
	if c.Hosts < 5 {
		c.Hosts = 5
	}
	if c.Events <= 0 {
		c.Events = 100000
	}
	if c.Start.IsZero() {
		c.Start = DefaultStart
	}
	if c.Duration <= 0 {
		c.Duration = 24 * time.Hour
	}
	return c
}

// Generate produces the full record stream, background plus injected
// scenarios, sorted by start timestamp.
func Generate(cfg Config) []eventstore.Record {
	cfg = cfg.normalized()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &generator{cfg: cfg, rng: rng}
	g.buildHosts()
	recs := g.background()
	for _, sc := range cfg.Scenarios {
		switch sc {
		case ScenarioDemoAPT:
			recs = append(recs, g.demoAPT()...)
		case ScenarioATCCase:
			recs = append(recs, g.atcCase()...)
		}
	}
	// stable, so records with equal timestamps keep their generation order
	slices.SortStableFunc(recs, func(a, b eventstore.Record) int { return cmp.Compare(a.StartTS, b.StartTS) })
	return recs
}

// GenerateInto generates the records, ingests them into a store and
// seals them (a durable store writes its segment files and manifest
// edition). It returns how many records it ingested, or the error of
// the append or the seal.
func GenerateInto(s *eventstore.Store, cfg Config) (int, error) {
	recs := Generate(cfg)
	if err := s.AppendAll(recs); err != nil {
		return 0, err
	}
	if err := s.Flush(); err != nil {
		return 0, err
	}
	return len(recs), nil
}

// hostProfile describes one agent's background behavior.
type hostProfile struct {
	agent    uint32
	os       string // "windows" or "linux"
	role     string // "web", "db", "dc", "file", "workstation"
	procs    []sysmon.Process
	files    []string
	weight   int // relative share of background events
	internal string
}

type generator struct {
	cfg   Config
	rng   *rand.Rand
	hosts []hostProfile
	// shared pools
	externalIPs []string
}

func (g *generator) at(hour, min, sec int) int64 {
	return g.cfg.Start.Add(time.Duration(hour)*time.Hour +
		time.Duration(min)*time.Minute + time.Duration(sec)*time.Second).UnixNano()
}

// rnd returns a deterministic pseudo-random int in [0, n).
func (g *generator) rnd(n int) int { return g.rng.Intn(n) }
