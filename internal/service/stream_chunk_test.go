package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	aiql "github.com/aiql/aiql"
)

// TestAppendJSONRowMatchesEncodingJSON: the stream handler renders rows
// without encoding/json, and clients (and the benchmark's row hashes)
// see the bytes — so they must be the bytes json.Encoder writes, for
// every byte value, the HTML-sensitive characters, the two escaped line
// separators, invalid UTF-8, and empty or nil rows.
func TestAppendJSONRowMatchesEncodingJSON(t *testing.T) {
	rows := [][]string{
		nil,
		{},
		{""},
		{"worker.exe", `C:\data\out0.log`},
		{`a "quoted" <b>&amp;</b>`, "tab\there", "line\nfeed\r", "\b\f\x00\x1f\x7f"},
		{"sep\u2028arators\u2029", "caf\u00e9 \u65e5\u672c \U0001F600"},
		{"bad\xffutf8\xc3", "\xe2\x80", "trailing\xe2"},
	}
	all := make([]byte, 256)
	for b := range all {
		all[b] = byte(b)
		rows = append(rows, []string{string([]byte{byte(b)}), "x" + string([]byte{byte(b)}) + "y"})
	}
	rows = append(rows, []string{string(all)})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		cell := make([]byte, rng.Intn(40))
		for k := range cell {
			cell[k] = byte(rng.Intn(256))
		}
		rows = append(rows, []string{string(cell), "\u2028" + string(cell)})
	}
	for _, row := range rows {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(row); err != nil {
			t.Fatal(err)
		}
		if got := append(appendJSONRow(nil, row), '\n'); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("row %q:\n got %s\nwant %s", row, got, want.Bytes())
		}
	}
}

// countingFlusher is a ResponseWriter that counts Flush calls — the
// write syscalls a real connection would see.
type countingFlusher struct {
	*httptest.ResponseRecorder
	flushes int
}

func (c *countingFlusher) Flush() { c.flushes++ }

// TestHTTPStreamFlushesPerChunk: a stream flushes after the header, once
// per chunk the execution hands over (the first row being a chunk of its
// own) and after the trailer — not once per row. On a 10 000-row result
// that is two orders of magnitude fewer flushes, while the bytes on the
// wire stay exactly what per-row encoding/json produced. It holds for
// the engine cursor's chunks and for a coordinator's merged stream.
func TestHTTPStreamFlushesPerChunk(t *testing.T) {
	const events = 10000
	const query = `proc p write file f as evt return p, f`
	merged := &fakeShards{}
	for i := 0; i < events; i++ {
		merged.rows = append(merged.rows, []string{"worker.exe", fmt.Sprintf(`C:\data\out%d.log`, i)})
	}
	for _, tc := range []struct {
		name string
		svc  *Service
	}{
		{"local", New(singleAgentDB(t, events), Config{})},
		{"sharded", NewSharded(aiql.Open(), merged, Config{})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := tc.svc
			// what the execution hands over, and the wire bytes the old
			// per-row encoder produced for it
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			chunks, rows := 0, 0
			_, err := svc.DoStreamChunks(context.Background(), Request{Query: query},
				func(cols []string, cached bool) error { return enc.Encode(StreamHeader{Columns: cols, Cached: cached}) },
				func(chunk [][]string) error {
					chunks++
					for _, row := range chunk {
						rows++
						if err := enc.Encode(row); err != nil {
							return err
						}
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if rows != events {
				t.Fatalf("streamed %d rows, want %d", rows, events)
			}

			w := &countingFlusher{ResponseRecorder: httptest.NewRecorder()}
			svc.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/query/stream",
				strings.NewReader(`{"query": "`+query+`"}`)))
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
			if w.flushes > 3+chunks {
				t.Errorf("%d flushes for %d chunks, want at most 3 + chunks", w.flushes, chunks)
			}
			if w.flushes*100 > events+2 {
				t.Errorf("%d flushes for %d rows is not two orders of magnitude below one per row", w.flushes, events)
			}
			if w.flushes < 3 {
				t.Errorf("%d flushes: the header, the first row and the trailer must each be flushed", w.flushes)
			}
			body := w.Body.Bytes()
			trailer := bytes.LastIndexByte(body[:len(body)-1], '\n') + 1
			if !bytes.Equal(body[:trailer], want.Bytes()) {
				t.Errorf("header and row bytes differ from per-row encoding/json output (got %d bytes, want %d)", trailer, want.Len())
			}
			var tr StreamTrailer
			if err := json.Unmarshal(body[trailer:], &tr); err != nil || !tr.Done || tr.Rows != events {
				t.Errorf("trailer %s: %+v, %v", body[trailer:], tr, err)
			}

			// the first row must not wait for a chunk to fill: it is flushed alone
			first := &firstFlush{ResponseRecorder: httptest.NewRecorder()}
			svc.Handler().ServeHTTP(first, httptest.NewRequest(http.MethodPost, "/api/v1/query/stream",
				strings.NewReader(`{"query": "`+query+`"}`)))
			if len(first.sizes) < 2 || first.sizes[1]-first.sizes[0] != len(`["worker.exe","C:\\data\\out0.log"]`)+1 {
				t.Errorf("bytes written at each flush %v: the second flush must carry exactly the first row", first.sizes[:min(len(first.sizes), 4)])
			}
		})
	}
}

// firstFlush records how many body bytes had been written at each Flush.
type firstFlush struct {
	*httptest.ResponseRecorder
	sizes []int
}

func (f *firstFlush) Flush() { f.sizes = append(f.sizes, f.Body.Len()) }
