// Package webui serves the AIQL web interface (paper §3, Figure 3): an
// input box for entering queries, an execution status area showing
// query time, an interactive results table with sorting and searching,
// and a syntax check for query debugging. It is one static page whose
// script is a client of the versioned JSON API (/api/v1), so the UI
// shares that API's error model, admission control, per-client
// fairness, caches and partial-result warnings rather than forking them.
package webui

import (
	_ "embed"
	"net/http"
)

//go:embed index.html
var page []byte

// Handler serves the page at "/" and answers every other path with 404.
// Mount it beside the /api/v1 handler the page calls.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(page)
	})
	return mux
}
