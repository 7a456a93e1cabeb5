package catalog

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"

	"github.com/aiql/aiql/internal/service"
)

// LoadRequest is the wire form of a dataset hot-swap.
type LoadRequest struct {
	// Path is the durable store directory to load; empty reloads the
	// dataset's backing directory.
	Path string `json:"path,omitempty"`
}

// LoadResponse reports a completed hot-swap.
type LoadResponse struct {
	Dataset string             `json:"dataset"`
	Path    string             `json:"path,omitempty"`
	Stats   service.StoreStats `json:"store"`
}

// DatasetsResponse lists the catalog's datasets.
type DatasetsResponse struct {
	Default  string                 `json:"default"`
	Datasets []service.DatasetStats `json:"datasets"`
}

// maxLoadBody caps hot-swap request bodies.
const maxLoadBody = 1 << 16

// Handler returns the catalog's HTTP API: the per-dataset query API
// (see service.NewHandler) plus dataset management:
//
//	GET  /api/v1/datasets              → DatasetsResponse
//	POST /api/v1/datasets/{name}/load  LoadRequest → LoadResponse
//
// A load builds the new store off to the side and swaps atomically:
// queries in flight on the old dataset complete on the snapshot they
// started with.
func (c *Catalog) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/api/v1/", service.NewHandler(c))
	mux.HandleFunc("/api/v1/datasets", c.handleList)
	mux.HandleFunc("/api/v1/datasets/", c.handleDataset)
	return mux
}

func (c *Catalog) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed,
			service.ErrorResponse{Code: service.CodeMethodNotAllowed, Error: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, DatasetsResponse{Default: c.DefaultName(), Datasets: c.Stats()})
}

// handleDataset routes /api/v1/datasets/{name}/load.
func (c *Catalog) handleDataset(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/v1/datasets/")
	name, action, ok := strings.Cut(rest, "/")
	if !ok || name == "" || action != "load" {
		// status and code must agree with the documented table:
		// bad_request is pinned to 400
		writeJSON(w, http.StatusBadRequest, service.ErrorResponse{Code: service.CodeBadRequest,
			Error: "unknown datasets endpoint; try POST /api/v1/datasets/{name}/load"})
		return
	}
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed,
			service.ErrorResponse{Code: service.CodeMethodNotAllowed, Error: "POST only"})
		return
	}
	var req LoadRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxLoadBody)).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest,
				service.ErrorResponse{Code: service.CodeBadRequest, Error: "bad request: " + err.Error()})
			return
		}
	}
	d, err := c.Load(name, req.Path)
	if err != nil {
		service.WriteError(w, err)
		return
	}
	st := d.Service().DatasetStats(d.Name())
	writeJSON(w, http.StatusOK, LoadResponse{Dataset: d.Name(), Path: d.Path(), Stats: st.Store})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Warn("catalog: response encode failed", "error", err)
	}
}
