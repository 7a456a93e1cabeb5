package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/catalog"
	"github.com/aiql/aiql/internal/obs"
	"github.com/aiql/aiql/internal/service"
	"github.com/aiql/aiql/internal/shard"
)

// Dataset names the benchmark serves.
const (
	dsCorp    = "corp"  // the static enterprise day the analysts query
	dsSharded = "corp4" // the same day split over four members
	dsEdge    = "edge"  // the dataset collection writes into
)

const shardMembers = 4

// compactEvery is the background compactor's period on every dataset.
const compactEvery = 2 * time.Second

// server is what one aiqlserver process would hold: the catalog, the
// handler it mounts, and the stores to close on the way out.
type server struct {
	cat     *catalog.Catalog
	handler http.Handler
	dbs     []*aiql.DB
	coord   *shard.Coordinator
	sharded *service.Service
	// memberDBs are the sharded dataset's stores, owned (and closed) by
	// the coordinator; kept to read their counters.
	memberDBs []*aiql.DB
}

// serve opens the named store directories as datasets of a fresh
// catalog with fresh caches. members, when set, become the sharded
// dataset dsSharded.
func (sz sizing) serve(dirs map[string]string, members []string) (*server, error) {
	s := &server{cat: catalog.New(catalog.Config{
		ScanCacheBytes:  sz.scanCacheBytes,
		BlockCacheBytes: sz.blockCacheBytes,
		CompactInterval: compactEvery,
	})}
	s.handler = s.cat.Handler()
	for name, dir := range dirs {
		db, err := sz.openStore(dir)
		if err != nil {
			s.close()
			return nil, err
		}
		s.dbs = append(s.dbs, db)
		if _, err := s.cat.AddDB(name, db); err != nil {
			s.close()
			return nil, err
		}
	}
	if len(members) > 0 {
		if err := s.addSharded(sz, members); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// addSharded fronts the member directories with a coordinator, built
// the way catalog.AddSharded builds one. The catalog keeps no handle by
// which a sharded dataset's members can be closed again, and the
// benchmark must reopen them, so it assembles the same parts itself and
// routes dsSharded to them ahead of the catalog.
func (s *server) addSharded(sz sizing, dirs []string) error {
	pool := aiql.NewScanPool(maxClients())
	var members []shard.Member
	for i, dir := range dirs {
		db, err := sz.openStore(dir)
		if err != nil {
			for _, m := range members {
				m.Source.Close()
			}
			return err
		}
		db.EnableSegmentScanCache(sz.scanCacheBytes)
		db.SetScanPool(pool)
		db.StartCompactor(compactEvery)
		var agents []int64
		for a := 1; a <= sz.hosts; a++ {
			if shardOf(uint32(a), len(dirs)) == i {
				agents = append(agents, int64(a))
			}
		}
		s.memberDBs = append(s.memberDBs, db)
		members = append(members, shard.Member{
			Name:   fmt.Sprintf("m%d", i),
			Source: shard.NewLocalSource(db),
			Bounds: shard.Bounds{From: math.MinInt64, To: math.MaxInt64, Agents: agents},
		})
	}
	s.coord = shard.NewCoordinator(dsSharded, members, shard.Options{})
	s.sharded = service.NewSharded(aiql.Open(), s.coord, service.Config{Dataset: dsSharded})
	mux := http.NewServeMux()
	mux.Handle("/api/v1/", service.NewHandler(s))
	s.handler = mux
	return nil
}

// Resolve implements service.Resolver: the sharded dataset first, the
// catalog for everything else.
func (s *server) Resolve(dataset string) (*service.Service, error) {
	if dataset == dsSharded && s.sharded != nil {
		return s.sharded, nil
	}
	return s.cat.Resolve(dataset)
}

// close stops compactors and releases every store and its lock.
func (s *server) close() error {
	if s == nil {
		return nil
	}
	var first error
	if s.coord != nil {
		first = s.coord.Close()
	}
	for _, db := range s.dbs {
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// capture is the ResponseWriter the in-process clients hand to
// ServeHTTP. It keeps the body and notes when the first result row was
// written: the second line of an NDJSON stream (the first is the
// header), the whole body of a buffered response.
type capture struct {
	hdr      http.Header
	code     int
	buf      []byte
	lines    int
	rowLine  int // line count at which the first row (or the trailer) is out
	firstRow time.Time
}

func (c *capture) reset(rowLine int) {
	if c.hdr == nil {
		c.hdr = http.Header{}
	}
	clear(c.hdr)
	c.code, c.buf, c.lines, c.rowLine, c.firstRow = http.StatusOK, c.buf[:0], 0, rowLine, time.Time{}
}

func (c *capture) Header() http.Header  { return c.hdr }
func (c *capture) WriteHeader(code int) { c.code = code }
func (c *capture) Flush()               {}

func (c *capture) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	if c.firstRow.IsZero() {
		c.lines += bytes.Count(p, []byte{'\n'})
		if c.lines >= c.rowLine {
			c.firstRow = time.Now()
		}
	}
	return len(p), nil
}

// post sends one request through the handler and returns when the
// response is complete.
func (s *server) post(ctx context.Context, c *capture, clientID, path string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://bench"+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("X-Client-Id", clientID)
	s.handler.ServeHTTP(c, req)
	return nil
}

// get fetches a JSON document from the handler.
func (s *server) get(ctx context.Context, path string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://bench"+path, nil)
	if err != nil {
		return err
	}
	var c capture
	c.reset(1)
	s.handler.ServeHTTP(&c, req)
	if c.code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, c.code, c.buf)
	}
	return json.Unmarshal(c.buf, into)
}

// stats fetches GET /api/v1/stats for one dataset.
func (s *server) stats(ctx context.Context, dataset string) (service.DatasetStats, error) {
	var st service.DatasetStats
	err := s.get(ctx, "/api/v1/stats?dataset="+dataset, &st)
	return st, err
}

// bind prepares the statements the ops need on dataset and builds every
// op's request body. Statement handles die with their server, so ops
// are bound again after each reopen.
func (s *server) bind(ctx context.Context, ops []*op, dataset string, trace bool) error {
	stmts := map[*template]string{}
	var c capture
	for _, o := range ops {
		req := service.QueryRequest{Dataset: dataset, Limit: o.tmpl.limit, Trace: trace}
		if o.inline {
			req.Query = o.text()
		} else {
			id, ok := stmts[o.tmpl]
			if !ok {
				body, _ := json.Marshal(service.PrepareRequest{Query: o.tmpl.text, Dataset: dataset})
				c.reset(1)
				if err := s.post(ctx, &c, "bench-setup", "/api/v1/prepare", body); err != nil {
					return err
				}
				var pr service.PrepareResponse
				if err := json.Unmarshal(c.buf, &pr); err != nil || c.code != http.StatusOK {
					return fmt.Errorf("prepare %s: status %d: %s", o.tmpl.label, c.code, c.buf)
				}
				id = pr.StmtID
				stmts[o.tmpl] = id
			}
			req.StmtID, req.Params = id, o.params
			o.stmtID = id
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		o.body = body
	}
	return nil
}

// outcome is one finished query op.
type outcome struct {
	start    time.Time
	total    time.Duration
	firstRow time.Duration
	rows     int
	bytes    int
	cached   bool
	trace    *obs.SpanNode
	err      error // non-nil: the op failed or returned a wrong result
}

// bufferedMaxRows is the buffered endpoint's page cap (service.Config.MaxRows default).
const bufferedMaxRows = 5000

// client is one closed-loop caller with its reusable buffers.
type client struct {
	id     string
	srv    *server
	cap    capture
	hashes []uint64
}

// query sends o through the HTTP handler and checks the response
// against the op's reference. sharded says the dataset is dsSharded,
// whose streams arrive in canonical order.
func (c *client) query(ctx context.Context, o *op, sharded bool) outcome {
	path, rowLine := "/api/v1/query", 1
	if o.tmpl.stream {
		path, rowLine = "/api/v1/query/stream", 2
	}
	c.cap.reset(rowLine)
	out := outcome{start: time.Now()}
	if err := c.srv.post(ctx, &c.cap, c.id, path, o.body); err != nil {
		out.err = err
		return out
	}
	out.total = time.Since(out.start)
	out.firstRow = out.total
	if !c.cap.firstRow.IsZero() {
		out.firstRow = c.cap.firstRow.Sub(out.start)
	}
	out.bytes = len(c.cap.buf)
	if c.cap.code != http.StatusOK {
		out.err = fmt.Errorf("%s: status %d: %s", o.tmpl.label, c.cap.code, bytes.TrimSpace(c.cap.buf))
		return out
	}
	if o.tmpl.stream {
		c.readStream(o, sharded, &out)
	} else {
		c.readBuffered(o, &out)
	}
	return out
}

func (c *client) readBuffered(o *op, out *outcome) {
	var res struct {
		Rows      []json.RawMessage `json:"rows"`
		TotalRows int               `json:"total_rows"`
		Cached    bool              `json:"cached"`
		Partial   bool              `json:"partial"`
		Trace     *obs.SpanNode     `json:"trace"`
	}
	if err := json.Unmarshal(c.cap.buf, &res); err != nil {
		out.err = fmt.Errorf("%s: bad response: %w", o.tmpl.label, err)
		return
	}
	out.rows, out.cached, out.trace = len(res.Rows), res.Cached, res.Trace
	if res.Partial {
		out.err = fmt.Errorf("%s: partial result", o.tmpl.label)
		return
	}
	if o.verify && res.TotalRows != len(o.ref) {
		out.err = fmt.Errorf("%s: total_rows %d, reference has %d", o.tmpl.label, res.TotalRows, len(o.ref))
		return
	}
	c.hashes = c.hashes[:0]
	for _, r := range res.Rows {
		c.hashes = append(c.hashes, rowHash(r))
	}
	limit := bufferedMaxRows
	if o.tmpl.limit > 0 {
		limit = min(limit, o.tmpl.limit)
	}
	out.err = o.check(c.hashes, sortedRows, limit)
}

func (c *client) readStream(o *op, sharded bool, out *outcome) {
	body := bytes.TrimSuffix(c.cap.buf, []byte{'\n'})
	last := bytes.LastIndexByte(body, '\n')
	if last < 0 {
		out.err = fmt.Errorf("%s: stream without a trailer", o.tmpl.label)
		return
	}
	var tr service.StreamTrailer
	if err := json.Unmarshal(body[last+1:], &tr); err != nil {
		out.err = fmt.Errorf("%s: bad trailer: %w", o.tmpl.label, err)
		return
	}
	out.trace = tr.Trace
	if !tr.Done || tr.Error != "" || tr.Partial {
		out.err = fmt.Errorf("%s: stream ended early: %s %s", o.tmpl.label, tr.Code, tr.Error)
		return
	}
	first := bytes.IndexByte(body, '\n') // end of the header line
	rows := body[first+1 : last+1]       // row lines, each newline-terminated
	out.rows = bytes.Count(rows, []byte{'\n'})
	if out.rows != tr.Rows {
		out.err = fmt.Errorf("%s: %d row lines, trailer says %d", o.tmpl.label, out.rows, tr.Rows)
		return
	}
	if !o.verify {
		return
	}
	c.hashes = c.hashes[:0]
	for len(rows) > 0 {
		nl := bytes.IndexByte(rows, '\n')
		c.hashes = append(c.hashes, rowHash(rows[:nl]))
		rows = rows[nl+1:]
	}
	order := producedRows
	if sharded {
		order = sortedRows
	}
	out.err = o.check(c.hashes, order, o.tmpl.limit)
}
