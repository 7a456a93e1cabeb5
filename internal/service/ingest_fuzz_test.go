package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	aiql "github.com/aiql/aiql"
)

// FuzzIngestBody drives arbitrary bytes through POST /api/v1/ingest on
// an in-memory store. Whatever the body, the handler must not panic and
// must answer 200, 400 or 413; a 200 commits exactly the events it
// reports, and any refusal leaves the store as it was and counts one
// rejected batch.
func FuzzIngestBody(f *testing.F) {
	var five strings.Builder
	for i := 0; i < 5; i++ {
		five.WriteString(ingestLine(i) + "\n")
	}
	for _, seed := range []string{
		ingestLine(0),
		ingestLine(1) + "\n" + ingestLine(2) + "\n",
		five.String(), // over the fuzz service's 4-record cap
		"",
		" \n\t",
		`{"agentid": `,
		"null",
		"[]",
		`{"op": "explode", "subject": {"exe_name": "a.exe"}, "start_ts": 1}`,
		`{"op": "read", "subject": {"exe_name": "a.exe"}, "file": {"name": "f"}, "start_ts": 1}`,
		`{"op": "connect", "subject": {"exe_name": "a.exe"}, "netconn": {"dst_ip": "10.0.0.1", "dst_port": 443}, "start_ts": 1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		db := aiql.Open()
		defer db.Close()
		svc := New(db, Config{})
		svc.maxRecords = 4
		before := svc.IngestStats()

		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/ingest", bytes.NewReader(body)))

		after := svc.IngestStats()
		switch rec.Code {
		case http.StatusOK:
			var res IngestResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatalf("200 with an undecodable body %q: %v", rec.Body.String(), err)
			}
			if res.Ingested <= 0 || db.Len() != res.Ingested {
				t.Fatalf("200 reports %d ingested, the store holds %d events", res.Ingested, db.Len())
			}
			if after.Rejected != before.Rejected {
				t.Fatalf("committed batch counted as rejected: %+v -> %+v", before, after)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if db.Len() != 0 {
				t.Fatalf("refused batch (%d) left %d events in the store", rec.Code, db.Len())
			}
			if after.Rejected != before.Rejected+1 {
				t.Fatalf("refused batch (%d: %s) moved rejected %d -> %d, want +1",
					rec.Code, rec.Body.String(), before.Rejected, after.Rejected)
			}
		default:
			t.Fatalf("status %d, want 200, 400 or 413: %s", rec.Code, rec.Body.String())
		}
	})
}
