package serve

import (
	"encoding/json"
	"net/http"

	"rhsc/internal/hetero"
	"rhsc/internal/metrics"
)

// NewMux exposes the server over a JSON HTTP API:
//
//	POST /v1/jobs            submit a JobSpec; 202 queued, 400 invalid,
//	                         429 rejected by admission control
//	GET  /v1/jobs            list every known job
//	GET  /v1/jobs/{id}       one job's status
//	GET  /v1/jobs/{id}/watch progress stream, one JSON object per line
//	                         (application/x-ndjson), closing after the
//	                         terminal event
//	GET  /v1/jobs/{id}/result the finished job's CSV deliverable
//	GET  /v1/metrics         serving counters (metrics.ServeSnapshot)
//	                         and the spool's durable_* counters
//	GET  /v1/fleet           routed-fleet health (per-device scores and
//	                         drain states, equivalent capacity, router
//	                         counters); 404 without a -fleet
func NewMux(s *Server) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		st, err := s.Submit(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		code := http.StatusAccepted
		if st.State == RejectedState {
			code = http.StatusTooManyRequests
		}
		writeJSON(w, code, st)
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job")
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/watch", func(w http.ResponseWriter, r *http.Request) {
		ch, cancel, ok := s.Watch(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job")
			return
		}
		defer cancel()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		for {
			select {
			case st, open := <-ch:
				if !open {
					return
				}
				if enc.Encode(st) != nil {
					return // client went away
				}
				if flusher != nil {
					flusher.Flush()
				}
			case <-r.Context().Done():
				return
			}
		}
	})

	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		res, ok := s.Result(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no result (job unknown or not done)")
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		w.WriteHeader(http.StatusOK)
		w.Write(res)
	})

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		// One flat JSON object: serving counters plus durable_*-prefixed
		// counters, so map[string]int64 consumers keep working.
		writeJSON(w, http.StatusOK, struct {
			metrics.ServeSnapshot
			metrics.DurableSnapshot
		}{s.Metrics(), s.DurableMetrics()})
	})

	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		fp, ok := s.cfg.Placer.(*FleetPlacer)
		if !ok || fp == nil {
			httpError(w, http.StatusNotFound, "no routed fleet configured")
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Devices  []hetero.DeviceHealth  `json:"devices"`
			Capacity float64                `json:"equivalent_capacity"`
			Counters metrics.RouterSnapshot `json:"counters"`
		}{fp.R.HealthReport(), fp.R.EquivalentCapacity(), fp.R.C.Snapshot()})
	})

	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
