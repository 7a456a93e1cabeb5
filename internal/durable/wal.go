package durable

import (
	"fmt"
	"os"
	"sync"

	"github.com/aiql/aiql/internal/sysmon"
)

// The write-ahead log makes committed-but-unsealed events durable
// between seals. It is a frame log (scanFrames): one record per frame,
// appended in commit order; a commit appends its dictionary deltas
// (entities interned since the last logged point) followed by its
// events, so replaying the log front to back reconstructs exactly the
// interning and append sequence the live store performed. A crash
// mid-write leaves a torn final record, which OpenWAL truncates back to
// the last intact frame; every record before the tear is recovered. A
// frame whose checksum matches but whose payload does not decode was
// never torn — no writer emits it — so it is corruption: OpenWAL fails
// with ErrCorrupt and leaves the file as it found it.

// RecKind discriminates WAL record payloads.
type RecKind uint8

// WAL record kinds.
const (
	RecInvalid RecKind = iota
	// RecProc/RecFile/RecConn append one entity to the corresponding
	// dictionary table (dictionary tables are append-only, so a delta
	// is just the new entries in intern order).
	RecProc
	RecFile
	RecConn
	// RecEvent appends one committed event (entity references are IDs
	// into the dictionary as of this point in the log).
	RecEvent
)

// Rec is one WAL record; Kind selects which payload field is set, and
// the others are zero. OpenWAL delivers records through a pointer to
// one reused Rec, valid only during the apply call.
type Rec struct {
	Kind RecKind
	// ID is the entity's dictionary ID for entity records. Replay uses
	// it to skip entries a newer manifest already captured (manifests
	// are written more often than the WAL is truncated), keeping the
	// log idempotent with respect to the manifest.
	ID    sysmon.EntityID
	Proc  sysmon.Process
	File  sysmon.File
	Conn  sysmon.Netconn
	Event sysmon.Event
}

func encodeRec(w *byteWriter, r *Rec) {
	w.u8(uint8(r.Kind))
	switch r.Kind {
	case RecProc:
		w.u32(uint32(r.ID))
		putProc(w, &r.Proc)
	case RecFile:
		w.u32(uint32(r.ID))
		putFile(w, &r.File)
	case RecConn:
		w.u32(uint32(r.ID))
		putConn(w, &r.Conn)
	case RecEvent:
		e := &r.Event
		w.u64(e.ID)
		w.u32(e.AgentID)
		w.u32(uint32(e.Subject))
		w.u16(uint16(e.Op))
		w.u8(uint8(e.ObjType))
		w.u32(uint32(e.Object))
		w.i64(e.StartTS)
		w.i64(e.EndTS)
		w.u64(e.Amount)
		w.u64(e.Seq)
	}
}

// decodeRec decodes payload into rec. Every field of the decoded kind's
// payload is overwritten, and a payload of a different previous kind is
// zeroed, so rec ends up exactly as a fresh decode would leave it while
// a run of same-kind records reuses it without clearing.
func decodeRec(payload []byte, rec *Rec) error {
	r := byteReader{buf: payload}
	if kind := RecKind(r.u8()); kind != rec.Kind {
		switch rec.Kind {
		case RecProc:
			rec.Proc = sysmon.Process{}
		case RecFile:
			rec.File = sysmon.File{}
		case RecConn:
			rec.Conn = sysmon.Netconn{}
		case RecEvent:
			rec.Event = sysmon.Event{}
		}
		rec.Kind = kind
	}
	switch rec.Kind {
	case RecProc:
		rec.ID = sysmon.EntityID(r.u32())
		getProc(&r, &rec.Proc)
	case RecFile:
		rec.ID = sysmon.EntityID(r.u32())
		getFile(&r, &rec.File)
	case RecConn:
		rec.ID = sysmon.EntityID(r.u32())
		getConn(&r, &rec.Conn)
	case RecEvent:
		rec.ID = 0
		e := &rec.Event
		e.ID = r.u64()
		e.AgentID = r.u32()
		e.Subject = sysmon.EntityID(r.u32())
		e.Op = sysmon.Operation(r.u16())
		e.ObjType = sysmon.EntityType(r.u8())
		e.Object = sysmon.EntityID(r.u32())
		e.StartTS = r.i64()
		e.EndTS = r.i64()
		e.Amount = r.u64()
		e.Seq = r.u64()
	default:
		return corruptf("unknown WAL record kind %d", rec.Kind)
	}
	if r.fail {
		return corruptf("truncated WAL record")
	}
	if r.off != len(payload) {
		return corruptf("WAL record has %d trailing bytes", len(payload)-r.off)
	}
	return nil
}

// WAL is an open write-ahead log. Appends are serialized internally
// and never fsync; an append is durable against power loss once a later
// Sync returns, so a caller acknowledges a group of appends with one
// Sync.
//
// The first failed write, fsync or truncation poisons the log: it may
// now end in a torn frame, behind which replay would never reach, or
// hold records the disk did not confirm. Every later Append, Sync and
// Truncate returns that error, so no commit is acknowledged that
// recovery could not replay; reopening the directory recovers.
type WAL struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	size    int64
	records uint64
	// syncs counts Sync calls, the log's only append-path fsyncs. The
	// group-commit tests assert on it: a bulk ingest must cost one fsync
	// per batch, not one per commit.
	syncs uint64
	err   error
}

// usable reports the error that forbids the next write, if any. The
// caller holds w.mu.
func (w *WAL) usable() error {
	if w.f == nil {
		return fmt.Errorf("durable: WAL is closed")
	}
	return w.err
}

// poison latches the log's first write failure. The caller holds w.mu.
func (w *WAL) poison(err error) error {
	if w.err == nil {
		w.err = err
	}
	return err
}

// OpenWAL opens (creating if absent) the log at path, replaying every
// intact record through apply in order. A torn tail — a short frame or
// one whose checksum does not match, the signature of a crash
// mid-append — is truncated back to the last intact frame so
// subsequent appends extend a clean log; the records before the tear
// are all delivered. A checksummed frame that does not decode fails
// the open with an error wrapping ErrCorrupt, and the file is left
// untruncated. apply may be nil to skip replay delivery (the scan
// still locates the tail).
//
// Every record is decoded into one reused Rec: the pointer apply
// receives is valid only for the duration of the call, so apply copies
// out what it keeps (the strings it holds stay valid; they do not alias
// the log's bytes).
func OpenWAL(path string, apply func(*Rec) error) (*WAL, error) {
	var rec Rec
	var records uint64
	size, end, err := scanFrames(path, func(payload []byte) error {
		if err := decodeRec(payload, &rec); err != nil {
			return err
		}
		records++
		if apply != nil {
			return apply(&rec)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	f, err := openFile(SiteWALCreate, path, os.O_CREATE|os.O_RDWR)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if end != size {
		if err := truncateFile(SiteWALTruncate, f, end); err != nil {
			f.Close()
			return nil, fmt.Errorf("durable: truncate torn WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(end, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: %w", err)
	}
	return &WAL{f: f, path: path, size: end, records: records}, nil
}

// Append writes the records as one contiguous run of frames. It does
// not fsync: the commit is durable against power loss, and so
// "acknowledged", only once a later Sync returns.
func (w *WAL) Append(recs []Rec) error {
	if len(recs) == 0 {
		return nil
	}
	enc := &byteWriter{}
	for i := range recs {
		start := enc.beginFrame()
		encodeRec(enc, &recs[i])
		enc.endFrame(start)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usable(); err != nil {
		return err
	}
	if err := writeAll(SiteWALWrite, w.f, enc.buf); err != nil {
		return w.poison(fmt.Errorf("durable: WAL append: %w", err))
	}
	w.size += int64(len(enc.buf))
	w.records += uint64(len(recs))
	return nil
}

// syncLocked fsyncs the log; the caller holds w.mu.
func (w *WAL) syncLocked() error {
	w.syncs++
	if err := syncFile(SiteWALSync, w.f); err != nil {
		return w.poison(fmt.Errorf("durable: WAL sync: %w", err))
	}
	return nil
}

// Truncate discards the log's contents: every event it covered is now
// durable in manifest-listed segment files.
func (w *WAL) Truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usable(); err != nil {
		return err
	}
	if err := truncateFile(SiteWALTruncate, w.f, 0); err != nil {
		return w.poison(fmt.Errorf("durable: WAL truncate: %w", err))
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return w.poison(fmt.Errorf("durable: %w", err))
	}
	w.size = 0
	w.records = 0
	if err := syncFile(SiteWALSync, w.f); err != nil {
		return w.poison(fmt.Errorf("durable: WAL sync: %w", err))
	}
	return nil
}

// Size returns the log's current byte length.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Records returns the number of records in the log.
func (w *WAL) Records() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Sync fsyncs the log.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usable(); err != nil {
		return err
	}
	return w.syncLocked()
}

// Syncs returns the number of append-path fsyncs issued so far.
func (w *WAL) Syncs() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncs
}

// Close fsyncs and closes the log file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if w.err == nil {
		syncFile(SiteWALSync, w.f)
	}
	err := w.f.Close()
	w.f = nil
	return err
}
