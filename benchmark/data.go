package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/datagen"
	"github.com/aiql/aiql/internal/service"
)

// sizing fixes every size the benchmark depends on. The driver's
// budget (about 30 s per run, set-up repeated three times inside it)
// fixes the full scale at roughly a sixth of the enterprise day the
// issue sketched; the cache budgets shrink with it so that the ratio
// of working set to cache survives (see README.md, "Sizes").
type sizing struct {
	hosts      int // agents; IDs 1..4 are servers
	corpEvents int // background events in the static queried dataset
	edgeSeed   int // events seeded into the collection dataset
	liveSeed   int // the same, on the live workload
	bulkEvents int // events loaded per bulk_load round
	bulkBatch  int // events per bulk_load batch

	pool       int // distinct investigate ops, every one reference-checked
	huntPool   int // distinct hunt ops, issued once each
	huntVerify int // every n-th hunt op is reference-checked
	coldOps    int // queries after each bulk_load round
	bulkRounds int // bulk_load runs at least this many rounds

	warmup  time.Duration
	setups  int // set-ups per run; setup_s is their median
	reopens int // close/reopen/first-query repeats

	blockCacheBytes int64
	scanCacheBytes  int64
}

var scales = map[string]sizing{
	"full": {
		hosts: 40, corpEvents: 160_000, edgeSeed: 20_000, liveSeed: 50_000,
		bulkEvents: 100_000, bulkBatch: 1000,
		pool: 540, huntPool: 2400, huntVerify: 8, coldOps: 540, bulkRounds: 5,
		warmup: time.Second, setups: 3, reopens: 7,
		blockCacheBytes: 4 << 20, scanCacheBytes: 8 << 20,
	},
	// tiny is the smoke-test scale: every code path, no meaningful numbers.
	"tiny": {
		hosts: 10, corpEvents: 20_000, edgeSeed: 4_000, liveSeed: 6_000,
		bulkEvents: 8_000, bulkBatch: 500,
		pool: 90, huntPool: 240, huntVerify: 4, coldOps: 45, bulkRounds: 2,
		warmup: 200 * time.Millisecond, setups: 1, reopens: 2,
		blockCacheBytes: 1 << 20, scanCacheBytes: 2 << 20,
	},
}

// collection describes the monitoring feed that runs beside the
// queries: an open loop of rate batches per second (0 = closed loop,
// back to back), each of batchEvents events, and the number of standing
// queries watching it.
type collection struct {
	rate        int
	batchEvents int
	watches     int
}

var (
	// trickle keeps collection going beside a query-centred workload:
	// 1000 events/s, enough batches in a run for an ack p95.
	trickle = collection{rate: 100, batchEvents: 10, watches: 4}
	// firehose is the live workload's feed: 10 000 events/s.
	firehose = collection{rate: 50, batchEvents: 200, watches: 16}
)

var bothScenarios = []datagen.Scenario{datagen.ScenarioDemoAPT, datagen.ScenarioATCCase}

// dayOne generates one enterprise day with both APT scenarios injected.
func dayOne(seed int64, hosts, events int) []aiql.Record {
	return datagen.Generate(datagen.Config{Seed: seed, Hosts: hosts, Events: events, Scenarios: bothScenarios})
}

// feedStart is where collected events begin: the day after the seeded
// data, so queries over day one see a fixed answer while day two grows.
var feedStart = datagen.DefaultStart.Add(24 * time.Hour)

// openStore opens (creating if absent) a durable store the way the
// benchmark always does: fsync on every commit, the scaled block cache.
func (sz sizing) openStore(dir string) (*aiql.DB, error) {
	st := aiql.DefaultStorage()
	st.Dir = dir
	st.SyncWAL = true
	st.BlockCacheBytes = sz.blockCacheBytes
	return aiql.OpenDirWithOptions(st, aiql.EngineConfig{})
}

// loadBatch is how many events one set-up commit carries.
const loadBatch = 10_000

// buildStore loads recs into a new durable store at dir and closes it.
// Events of the first hour at odd positions arrive late, after the
// first seal, so every first-hour chunk holds two segments and the
// compactor has real work; the rest arrives in time order.
func (sz sizing) buildStore(dir string, recs []aiql.Record) (compact time.Duration, merged int, err error) {
	db, err := sz.openStore(dir)
	if err != nil {
		return 0, 0, err
	}
	compact, merged, err = loadStore(db, recs)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, fmt.Errorf("build %s: %w", dir, err)
	}
	return compact, merged, nil
}

func loadStore(db *aiql.DB, recs []aiql.Record) (compact time.Duration, merged int, err error) {
	lateBefore := datagen.DefaultStart.Add(time.Hour).UnixNano()
	onTime := make([]aiql.Record, 0, len(recs))
	var late []aiql.Record
	for i, r := range recs {
		if r.StartTS < lateBefore && i%2 == 1 {
			late = append(late, r)
		} else {
			onTime = append(onTime, r)
		}
	}
	for _, wave := range [][]aiql.Record{onTime, late} {
		for i := 0; i < len(wave); i += loadBatch {
			if err := db.AppendAll(wave[i:min(i+loadBatch, len(wave))]); err != nil {
				return 0, 0, err
			}
		}
		if err := db.Flush(); err != nil {
			return 0, 0, err
		}
	}
	t0 := time.Now()
	cr := db.Compact()
	compact = time.Since(t0)
	if got := db.Len(); got != len(recs) {
		return 0, 0, fmt.Errorf("store holds %d events, loaded %d", got, len(recs))
	}
	return compact, cr.EventsMerged, nil
}

// shardOf is the scatter workload's partition map: agentid mod members.
func shardOf(agent uint32, members int) int { return int(agent) % members }

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies the regular files of src (flat: a store directory has
// no subdirectories) into a new directory dst, skipping the LOCK file
// the live store holds. It reads what the writer has handed to the
// operating system so far, which is what a process crash leaves behind.
func copyDir(src, dst string) error {
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() || e.Name() == "LOCK" {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// feed is a pre-encoded monitoring stream: NDJSON bodies for
// POST /api/v1/ingest, each carrying one planted event that exactly one
// standing query reports, naming the batch in its file path.
type feed struct {
	col     collection
	bodies  [][]byte
	records [][]aiql.Record // the same batches, for the traced pass's direct calls
	events  int
}

// implant is the process whose writes standing query k reports.
func implant(k int) aiql.Process {
	return aiql.Process{PID: uint32(7000 + k), ExeName: fmt.Sprintf("implant%02d.exe", k),
		Path: fmt.Sprintf(`C:\Temp\implant%02d.exe`, k), User: "system"}
}

// implantAgent spreads the standing queries over the workstations.
func implantAgent(k, hosts int) uint32 {
	return uint32(datagen.FirstWorkstation + k%(hosts-datagen.FirstWorkstation+1))
}

// dropPrefix and dropSuffix frame the batch number in a planted file path.
const (
	dropPrefix = `C:\Drop\batch-`
	dropSuffix = `.bin`
)

// watchQuery is standing query k: every file implant k writes.
func watchQuery(k, hosts int) string {
	return fmt.Sprintf("agentid = %d\nproc p[\"%%implant%02d.exe\"] write file f as evt\nreturn distinct p, f",
		implantAgent(k, hosts), k)
}

// seedImplants returns one benign write per implant process, so the
// standing queries resolve their process pattern against an entity the
// store already knows and register with a non-empty baseline.
func seedImplants(watches, hosts int) []aiql.Record {
	out := make([]aiql.Record, watches)
	for k := range out {
		out[k] = aiql.Record{AgentID: implantAgent(k, hosts), Subject: implant(k), Op: aiql.OpWrite,
			ObjType: aiql.EntityFile, ObjFile: aiql.File{Path: `C:\Drop\baseline.bin`, Owner: "system"},
			StartTS: datagen.DefaultStart.UnixNano() + int64(k), Amount: 1}
	}
	return out
}

// newFeed generates batches of background events in time order, from
// the hour after feedStart (or from day one with both scenarios when
// dayOneData is set, which bulk_load uses so that its loaded store
// answers the investigation queries), and plants one trigger per batch.
func newFeed(seed int64, hosts int, col collection, batches int, dayOneData bool) (*feed, error) {
	var recs []aiql.Record
	n := batches * (col.batchEvents - 1)
	if dayOneData {
		recs = dayOne(seed, hosts, n)
	} else {
		recs = datagen.Generate(datagen.Config{Seed: seed, Hosts: hosts, Events: n, Start: feedStart, Duration: time.Hour})
	}
	f := &feed{col: col}
	per := (len(recs) + batches - 1) / batches
	var buf bytes.Buffer
	for b := 0; b < batches; b++ {
		batch := append([]aiql.Record(nil), recs[min(b*per, len(recs)):min((b+1)*per, len(recs))]...)
		k := b % col.watches
		ts := feedStart.UnixNano() + int64(b)
		if len(batch) > 0 {
			ts = batch[0].StartTS
		}
		batch = append(batch, aiql.Record{AgentID: implantAgent(k, hosts), Subject: implant(k), Op: aiql.OpWrite,
			ObjType: aiql.EntityFile, ObjFile: aiql.File{Path: fmt.Sprintf("%s%d%s", dropPrefix, b, dropSuffix), Owner: "system"},
			StartTS: ts, Amount: 4096})
		buf.Reset()
		enc := json.NewEncoder(&buf)
		for _, r := range batch {
			if err := enc.Encode(wireRecord(r)); err != nil {
				return nil, err
			}
		}
		f.bodies = append(f.bodies, append([]byte(nil), buf.Bytes()...))
		f.records = append(f.records, batch)
		f.events += len(batch)
	}
	return f, nil
}

// wireRecord renders a store record in the ingest endpoint's wire form.
func wireRecord(r aiql.Record) service.IngestRecord {
	ir := service.IngestRecord{
		AgentID: r.AgentID, Op: r.Op.String(), StartTS: r.StartTS, EndTS: r.EndTS, Amount: r.Amount,
		Subject: wireProc(r.Subject),
	}
	switch r.ObjType {
	case aiql.EntityProcess:
		p := wireProc(r.ObjProc)
		ir.Process = &p
	case aiql.EntityFile:
		ir.File = &service.WireFile{Name: r.ObjFile.Path, Owner: r.ObjFile.Owner}
		if r.Op == aiql.OpRead || r.Op == aiql.OpWrite {
			ir.ObjectType = "file"
		}
	case aiql.EntityNetconn:
		c := r.ObjConn
		ir.Netconn = &service.WireNetconn{SrcIP: c.SrcIP, SrcPort: c.SrcPort, DstIP: c.DstIP, DstPort: c.DstPort, Protocol: c.Protocol}
		if r.Op == aiql.OpRead || r.Op == aiql.OpWrite {
			ir.ObjectType = "netconn"
		}
	}
	return ir
}

func wireProc(p aiql.Process) service.WireProcess {
	return service.WireProcess{PID: p.PID, ExeName: p.ExeName, Path: p.Path, User: p.User, CmdLine: p.CmdLine}
}
