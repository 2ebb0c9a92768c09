package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// buildMux wires the job API:
//
//	POST   /jobs            submit a JobSpec -> 201 + Status (400/429/503 on rejection)
//	GET    /jobs            list all job statuses, newest first
//	GET    /jobs/{id}       one job's status
//	GET    /jobs/{id}/steps stream step events as JSONL until the job ends
//	DELETE /jobs/{id}       cancel (running jobs stop at the next step boundary)
//	GET    /stats           scheduler snapshot
//	GET    /metrics         full metrics-registry snapshot
//	GET    /healthz         liveness
func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/steps", s.handleSteps)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad job spec: %v", err)})
		return
	}
	j, err := s.Submit(spec)
	if err != nil {
		var rej *RejectError
		if errors.As(err, &rej) {
			writeJSON(w, rej.Code, apiError{Error: rej.Reason})
			return
		}
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	w.Header().Set("Location", fmt.Sprintf("/jobs/%d", j.ID))
	writeJSON(w, http.StatusCreated, s.jobStatus(j))
}

// jobFrom resolves the {id} path value; a nil return means the response
// is already written.
func (s *Server) jobFrom(w http.ResponseWriter, r *http.Request) *Job {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "job id must be an integer"})
		return nil
	}
	j := s.Job(id)
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("no job %d", id)})
		return nil
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobFrom(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, s.jobStatus(j))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Statuses())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFrom(w, r)
	if j == nil {
		return
	}
	s.Cancel(j.ID)
	writeJSON(w, http.StatusOK, s.jobStatus(j))
}

// handleSteps streams the job's step events as JSON Lines, flushing
// after every event, until the job reaches a terminal state (a final
// line carries the terminal status) or the client goes away.
func (s *Server) handleSteps(w http.ResponseWriter, r *http.Request) {
	j := s.jobFrom(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	done := r.Context().Done()
	sent := 0
	for {
		for _, ev := range j.stepsFrom(sent) {
			if err := enc.Encode(ev); err != nil {
				return
			}
			sent++
		}
		if flusher != nil {
			flusher.Flush()
		}
		count, state := j.waitChange(sent)
		if count <= sent && terminal(state) {
			// Drained and terminal: emit the final status line.
			_ = enc.Encode(map[string]any{"final": s.jobStatus(j)})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.metrics.Snapshot()
	if snap == nil {
		snap = map[string]any{}
	}
	writeJSON(w, http.StatusOK, snap)
}
