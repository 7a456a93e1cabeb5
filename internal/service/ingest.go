package service

import (
	"context"
	"fmt"
	"net/http"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/sysmon"
)

// Live ingestion: POST /api/v1/ingest accepts NDJSON event records and
// routes them through the store's WAL/memtable commit path as one
// acknowledged batch — visible to queries and group-committed (one WAL
// fsync) when the call returns. Ingests pass through the same admission
// control as queries, so a monitoring firehose and interactive analysts
// share the worker pool under one shedding policy, and every committed
// batch triggers the standing-query registry's incremental evaluation.

// IngestStats are the service's ingestion counters.
type IngestStats struct {
	// Requests counts accepted ingest batches.
	Requests uint64 `json:"requests"`
	// Events counts events committed across all batches.
	Events uint64 `json:"events"`
	// Rejected counts batches refused before commit (admission,
	// validation, size caps, closed store).
	Rejected uint64 `json:"rejected"`
}

// IngestStats snapshots the ingestion counters.
func (s *Service) IngestStats() IngestStats {
	return IngestStats{
		Requests: s.ingests.Load(),
		Events:   s.ingestEvents.Load(),
		Rejected: s.ingestRejected.Load(),
	}
}

// WireProcess is the NDJSON form of a process entity.
type WireProcess struct {
	PID     uint32 `json:"pid"`
	ExeName string `json:"exe_name"`
	Path    string `json:"path,omitempty"`
	User    string `json:"user,omitempty"`
	CmdLine string `json:"cmdline,omitempty"`
}

// WireFile is the NDJSON form of a file entity.
type WireFile struct {
	Name  string `json:"name"`
	Owner string `json:"owner,omitempty"`
}

// WireNetconn is the NDJSON form of a network connection entity.
type WireNetconn struct {
	SrcIP    string `json:"src_ip,omitempty"`
	SrcPort  uint16 `json:"src_port,omitempty"`
	DstIP    string `json:"dst_ip"`
	DstPort  uint16 `json:"dst_port,omitempty"`
	Protocol string `json:"protocol,omitempty"`
}

// IngestRecord is one NDJSON line of an ingest request: an SVO event as
// a collection agent reports it. Exactly one of Process/File/Netconn
// must match the operation's object type; read and write are
// polymorphic, so they require an explicit ObjectType ("file" or
// "netconn") naming which object payload applies.
type IngestRecord struct {
	AgentID uint32      `json:"agentid"`
	Op      string      `json:"op"`
	Subject WireProcess `json:"subject"`
	// ObjectType disambiguates polymorphic operations (read/write);
	// for all others it is inferred from the operation.
	ObjectType string       `json:"object_type,omitempty"`
	Process    *WireProcess `json:"process,omitempty"`
	File       *WireFile    `json:"file,omitempty"`
	Netconn    *WireNetconn `json:"netconn,omitempty"`
	StartTS    int64        `json:"start_ts"`
	EndTS      int64        `json:"end_ts,omitempty"`
	Amount     uint64       `json:"amount,omitempty"`
}

// ingestErr raises a per-record validation failure carrying the 1-based
// record number, so an agent can pinpoint the bad line in its batch.
func ingestErr(line int, format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, code: CodeBadRequest,
		msg: fmt.Sprintf("ingest record %d: %s", line, fmt.Sprintf(format, args...))}
}

// toRecord validates one wire record into the store's append form.
func (ir *IngestRecord) toRecord(line int) (aiql.Record, error) {
	var rec aiql.Record
	op, ok := sysmon.ParseOperation(ir.Op)
	if !ok {
		return rec, ingestErr(line, "unknown op %q", ir.Op)
	}
	if ir.Subject.ExeName == "" {
		return rec, ingestErr(line, "subject.exe_name is required")
	}
	objType := op.ObjectType()
	if objType == sysmon.EntityInvalid {
		// polymorphic (read/write): the record must say which object
		// family it touches
		if ir.ObjectType == "" {
			return rec, ingestErr(line, "op %q is polymorphic; object_type (file|netconn) is required", ir.Op)
		}
		objType, ok = sysmon.ParseEntityType(ir.ObjectType)
		if !ok || objType == sysmon.EntityProcess {
			return rec, ingestErr(line, "op %q takes object_type file or netconn, got %q", ir.Op, ir.ObjectType)
		}
	} else if ir.ObjectType != "" {
		if t, ok := sysmon.ParseEntityType(ir.ObjectType); !ok || t != objType {
			return rec, ingestErr(line, "op %q takes a %s object, got object_type %q", ir.Op, objType, ir.ObjectType)
		}
	}
	rec.AgentID = ir.AgentID
	rec.Op = op
	rec.ObjType = objType
	rec.Subject = sysmon.Process{PID: ir.Subject.PID, ExeName: ir.Subject.ExeName,
		Path: ir.Subject.Path, User: ir.Subject.User, CmdLine: ir.Subject.CmdLine}
	switch objType {
	case sysmon.EntityProcess:
		if ir.Process == nil {
			return rec, ingestErr(line, "op %q requires a process object", ir.Op)
		}
		if ir.Process.ExeName == "" {
			return rec, ingestErr(line, "process.exe_name is required")
		}
		rec.ObjProc = sysmon.Process{PID: ir.Process.PID, ExeName: ir.Process.ExeName,
			Path: ir.Process.Path, User: ir.Process.User, CmdLine: ir.Process.CmdLine}
	case sysmon.EntityFile:
		if ir.File == nil {
			return rec, ingestErr(line, "op %q requires a file object", ir.Op)
		}
		if ir.File.Name == "" {
			return rec, ingestErr(line, "file.name is required")
		}
		rec.ObjFile = sysmon.File{Path: ir.File.Name, Owner: ir.File.Owner}
	case sysmon.EntityNetconn:
		if ir.Netconn == nil {
			return rec, ingestErr(line, "op %q requires a netconn object", ir.Op)
		}
		if ir.Netconn.DstIP == "" {
			return rec, ingestErr(line, "netconn.dst_ip is required")
		}
		rec.ObjConn = sysmon.Netconn{SrcIP: ir.Netconn.SrcIP, SrcPort: ir.Netconn.SrcPort,
			DstIP: ir.Netconn.DstIP, DstPort: ir.Netconn.DstPort, Protocol: ir.Netconn.Protocol}
	}
	if ir.StartTS == 0 {
		return rec, ingestErr(line, "start_ts is required (nanoseconds since epoch)")
	}
	rec.StartTS = ir.StartTS
	rec.EndTS = ir.EndTS
	if rec.EndTS == 0 {
		rec.EndTS = rec.StartTS
	}
	rec.Amount = ir.Amount
	return rec, nil
}

// IngestResult reports one committed batch.
type IngestResult struct {
	// Ingested is the number of events committed.
	Ingested int `json:"ingested"`
	// WatchesEvaluated is how many standing queries re-evaluated
	// against the fresh data before the ingest was acknowledged.
	WatchesEvaluated int `json:"watches_evaluated"`
	// NewMatches is the total fresh standing-query rows those
	// evaluations produced.
	NewMatches int `json:"new_matches"`
	// DurationMS is the service-observed latency, including queue wait
	// and standing-query evaluation.
	DurationMS float64 `json:"duration_ms"`
}

// rejectRecordCap counts and answers a batch over the record cap.
func (s *Service) rejectRecordCap() error {
	s.ingestRejected.Add(1)
	return &apiError{status: http.StatusRequestEntityTooLarge, code: CodeTooLarge,
		msg: fmt.Sprintf("service: ingest batch exceeds the %d-record cap, split it", s.maxRecords)}
}

// Ingest commits one batch of validated records: admission control
// (shared worker pool, per-client fairness), a group-committed
// AppendAll, then incremental re-evaluation of every registered
// standing query. A batch racing a catalog hot-swap fails atomically
// with aiql.ErrClosed — the API's dataset_reloading — and the agent
// resends it against the swapped-in store.
func (s *Service) Ingest(ctx context.Context, client string, recs []aiql.Record) (*IngestResult, error) {
	start := time.Now()
	if s.shards != nil {
		s.ingestRejected.Add(1)
		return nil, &apiError{status: http.StatusBadRequest, code: CodeUnsupported,
			msg: "service: a sharded dataset is read-only at the coordinator; ingest to the member owning the partition"}
	}
	if len(recs) > s.maxRecords {
		return nil, s.rejectRecordCap()
	}
	if err := s.acquireClient(client); err != nil {
		s.ingestRejected.Add(1)
		return nil, err
	}
	defer s.releaseClient(client)
	if err := s.admit(ctx); err != nil {
		s.ingestRejected.Add(1)
		return nil, err
	}
	defer func() { <-s.sem }()
	s.active.Add(1)
	defer s.active.Add(-1)

	if err := s.db.AppendAll(recs); err != nil {
		s.ingestRejected.Add(1)
		return nil, err
	}
	s.ingests.Add(1)
	s.ingestEvents.Add(uint64(len(recs)))

	// Standing queries evaluate synchronously, inside the batch's
	// worker slot: by the time the agent gets its acknowledgement,
	// every subscriber has been offered the fresh matches. The segment
	// scan cache keeps this cheap — sealed history is a cache hit, only
	// the fresh tail is scanned.
	evaluated, fresh := s.evalWatches(ctx)
	return &IngestResult{
		Ingested:         len(recs),
		WatchesEvaluated: evaluated,
		NewMatches:       fresh,
		DurationMS:       float64(time.Since(start)) / float64(time.Millisecond),
	}, nil
}
