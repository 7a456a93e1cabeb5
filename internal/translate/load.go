// Package translate bridges the AIQL world and the baseline engines: it
// loads an event store into the relational and graph databases, compiles
// AIQL queries into semantically equivalent SQL text, relational queries,
// graph patterns, and Cypher text. The translations power both the
// performance comparisons (Figures 4 and 5) and the query-conciseness
// experiment.
package translate

import (
	"context"
	"fmt"
	"sort"

	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/graphdb"
	"github.com/aiql/aiql/internal/relational"
	"github.com/aiql/aiql/internal/sysmon"
)

// Relational schema shared by the loader and the SQL generator.
var (
	eventCols = []relational.Column{
		{Name: "id", Type: relational.TypeInt},
		{Name: "agentid", Type: relational.TypeInt},
		{Name: "subject_id", Type: relational.TypeInt},
		{Name: "op", Type: relational.TypeText},
		{Name: "object_type", Type: relational.TypeText},
		{Name: "object_id", Type: relational.TypeInt},
		{Name: "start_ts", Type: relational.TypeInt},
		{Name: "end_ts", Type: relational.TypeInt},
		{Name: "amount", Type: relational.TypeInt},
		{Name: "seq", Type: relational.TypeInt},
	}
	processCols = []relational.Column{
		{Name: "id", Type: relational.TypeInt},
		{Name: "pid", Type: relational.TypeInt},
		{Name: "exe_name", Type: relational.TypeText},
		{Name: "path", Type: relational.TypeText},
		{Name: "user", Type: relational.TypeText},
		{Name: "cmdline", Type: relational.TypeText},
	}
	fileCols = []relational.Column{
		{Name: "id", Type: relational.TypeInt},
		{Name: "name", Type: relational.TypeText},
		{Name: "owner", Type: relational.TypeText},
	}
	netconnCols = []relational.Column{
		{Name: "id", Type: relational.TypeInt},
		{Name: "src_ip", Type: relational.TypeText},
		{Name: "src_port", Type: relational.TypeInt},
		{Name: "dst_ip", Type: relational.TypeText},
		{Name: "dst_port", Type: relational.TypeInt},
		{Name: "protocol", Type: relational.TypeText},
	}
)

// tableFor maps an entity type to its relational table name.
func tableFor(t sysmon.EntityType) string {
	switch t {
	case sysmon.EntityProcess:
		return "processes"
	case sysmon.EntityFile:
		return "files"
	case sysmon.EntityNetconn:
		return "netconns"
	default:
		return ""
	}
}

// objectTypeName is the events.object_type discriminator value.
func objectTypeName(t sysmon.EntityType) string {
	switch t {
	case sysmon.EntityProcess:
		return "process"
	case sysmon.EntityFile:
		return "file"
	case sysmon.EntityNetconn:
		return "netconn"
	default:
		return ""
	}
}

// LoadRelational copies the store's contents into a relational database,
// building indexes when the database is optimized.
func LoadRelational(db *relational.DB, store *eventstore.Store) error {
	events, err := db.CreateTable("events", eventCols)
	if err != nil {
		return err
	}
	procs, err := db.CreateTable("processes", processCols)
	if err != nil {
		return err
	}
	files, err := db.CreateTable("files", fileCols)
	if err != nil {
		return err
	}
	conns, err := db.CreateTable("netconns", netconnCols)
	if err != nil {
		return err
	}
	dict := store.Dict()
	for i := 1; i <= dict.Count(sysmon.EntityProcess); i++ {
		p := dict.Process(sysmon.EntityID(i))
		if err := procs.Insert([]relational.Value{
			relational.Int(int64(i)), relational.Int(int64(p.PID)),
			relational.Str(p.ExeName), relational.Str(p.Path),
			relational.Str(p.User), relational.Str(p.CmdLine),
		}); err != nil {
			return err
		}
	}
	for i := 1; i <= dict.Count(sysmon.EntityFile); i++ {
		f := dict.File(sysmon.EntityID(i))
		if err := files.Insert([]relational.Value{
			relational.Int(int64(i)), relational.Str(f.Path), relational.Str(f.Owner),
		}); err != nil {
			return err
		}
	}
	for i := 1; i <= dict.Count(sysmon.EntityNetconn); i++ {
		c := dict.Netconn(sysmon.EntityID(i))
		if err := conns.Insert([]relational.Value{
			relational.Int(int64(i)), relational.Str(c.SrcIP), relational.Int(int64(c.SrcPort)),
			relational.Str(c.DstIP), relational.Int(int64(c.DstPort)), relational.Str(c.Protocol),
		}); err != nil {
			return err
		}
	}
	// stream straight off the snapshot: no per-partition event copies
	var insertErr error
	scanErr := store.Snapshot().Scan(context.Background(), &eventstore.EventFilter{}, func(ev *sysmon.Event) bool {
		insertErr = events.Insert([]relational.Value{
			relational.Int(int64(ev.ID)), relational.Int(int64(ev.AgentID)),
			relational.Int(int64(ev.Subject)), relational.Str(ev.Op.String()),
			relational.Str(objectTypeName(ev.ObjType)), relational.Int(int64(ev.Object)),
			relational.Int(ev.StartTS), relational.Int(ev.EndTS),
			relational.Int(int64(ev.Amount)), relational.Int(int64(ev.Seq)),
		})
		return insertErr == nil
	})
	if insertErr != nil {
		return insertErr
	}
	if scanErr != nil {
		return fmt.Errorf("translate: read events: %w", scanErr)
	}
	if db.Optimized() {
		for _, ix := range [][2]string{
			{"events", "agentid"}, {"events", "subject_id"}, {"events", "object_id"},
			{"events", "op"}, {"events", "start_ts"},
			{"processes", "id"}, {"processes", "exe_name"},
			{"files", "id"}, {"files", "name"},
			{"netconns", "id"}, {"netconns", "dst_ip"},
		} {
			if err := db.CreateIndex(ix[0], ix[1]); err != nil {
				return err
			}
		}
	}
	return nil
}

// GraphLabels used when loading the property graph.
const (
	LabelProcess = "Process"
	LabelFile    = "File"
	LabelNetconn = "Netconn"
)

// labelFor maps entity types to graph labels.
func labelFor(t sysmon.EntityType) string {
	switch t {
	case sysmon.EntityProcess:
		return LabelProcess
	case sysmon.EntityFile:
		return LabelFile
	case sysmon.EntityNetconn:
		return LabelNetconn
	default:
		return ""
	}
}

// LoadGraph copies the store's contents into a property graph: one node
// per entity, one typed edge per event. Edges carry an "ord" property —
// the event's dense rank in (start_ts, id) order — so temporal relations
// translate to a single integer comparison exactly matching the AIQL
// engine's event order.
func LoadGraph(g *graphdb.Graph, store *eventstore.Store) error {
	dict := store.Dict()
	procNodes := make([]graphdb.NodeID, dict.Count(sysmon.EntityProcess)+1)
	fileNodes := make([]graphdb.NodeID, dict.Count(sysmon.EntityFile)+1)
	connNodes := make([]graphdb.NodeID, dict.Count(sysmon.EntityNetconn)+1)
	for i := 1; i < len(procNodes); i++ {
		p := dict.Process(sysmon.EntityID(i))
		procNodes[i] = g.AddNode(LabelProcess, map[string]graphdb.PropValue{
			"pid":      graphdb.NumProp(int64(p.PID)),
			"exe_name": graphdb.StrProp(p.ExeName),
			"path":     graphdb.StrProp(p.Path),
			"user":     graphdb.StrProp(p.User),
			"cmdline":  graphdb.StrProp(p.CmdLine),
		})
	}
	for i := 1; i < len(fileNodes); i++ {
		f := dict.File(sysmon.EntityID(i))
		fileNodes[i] = g.AddNode(LabelFile, map[string]graphdb.PropValue{
			"name":  graphdb.StrProp(f.Path),
			"owner": graphdb.StrProp(f.Owner),
		})
	}
	for i := 1; i < len(connNodes); i++ {
		c := dict.Netconn(sysmon.EntityID(i))
		connNodes[i] = g.AddNode(LabelNetconn, map[string]graphdb.PropValue{
			"src_ip":   graphdb.StrProp(c.SrcIP),
			"src_port": graphdb.NumProp(int64(c.SrcPort)),
			"dst_ip":   graphdb.StrProp(c.DstIP),
			"dst_port": graphdb.NumProp(int64(c.DstPort)),
			"protocol": graphdb.StrProp(c.Protocol),
		})
	}

	// one collected copy is unavoidable here: graph edge ordinals need a
	// global (start_ts, id) sort before insertion
	events, err := store.Collect(&eventstore.EventFilter{})
	if err != nil {
		return fmt.Errorf("translate: read events: %w", err)
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].StartTS != events[j].StartTS {
			return events[i].StartTS < events[j].StartTS
		}
		return events[i].ID < events[j].ID
	})
	for ord, ev := range events {
		from := procNodes[ev.Subject]
		var to graphdb.NodeID
		switch ev.ObjType {
		case sysmon.EntityProcess:
			to = procNodes[ev.Object]
		case sysmon.EntityFile:
			to = fileNodes[ev.Object]
		case sysmon.EntityNetconn:
			to = connNodes[ev.Object]
		default:
			return fmt.Errorf("translate: event %d has invalid object type", ev.ID)
		}
		g.AddEdge(from, to, ev.Op.String(), map[string]graphdb.PropValue{
			"id":       graphdb.NumProp(int64(ev.ID)),
			"agentid":  graphdb.NumProp(int64(ev.AgentID)),
			"start_ts": graphdb.NumProp(ev.StartTS),
			"end_ts":   graphdb.NumProp(ev.EndTS),
			"amount":   graphdb.NumProp(int64(ev.Amount)),
			"seq":      graphdb.NumProp(int64(ev.Seq)),
			"ord":      graphdb.NumProp(int64(ord)),
		})
	}
	// schema indexes comparable to Neo4j's: exact lookups on the default
	// attributes
	g.CreateIndex(LabelProcess, "exe_name")
	g.CreateIndex(LabelFile, "name")
	g.CreateIndex(LabelNetconn, "dst_ip")
	return nil
}
