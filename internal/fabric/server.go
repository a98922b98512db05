package fabric

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"
)

// maxBodyBytes bounds every request body the coordinator will buffer: a
// campaign of a few thousand cells fits comfortably; a hostile client
// streaming gigabytes gets cut off at the reader, not at OOM.
const maxBodyBytes = 16 << 20

// ServerConfig tunes the coordinator's HTTP front end.
type ServerConfig struct {
	// Addr is the listen address (host:port; port 0 picks a free port).
	Addr string
	// Token, when non-empty, is the bearer token every /api/v1 request
	// must present (Authorization: Bearer <token>). Empty disables auth —
	// loopback experiments only; production runs must set it.
	Token string
	// ExpireEvery is the lease-expiry scan period (0 selects LeaseTTL/4).
	ExpireEvery time.Duration
	// MaxBody overrides the per-request body cap (0 selects 16 MiB).
	MaxBody int64
}

func (c ServerConfig) maxBody() int64 {
	if c.MaxBody > 0 {
		return c.MaxBody
	}
	return maxBodyBytes
}

// Server exposes a Coordinator over HTTP: the campaign API (submit /
// status / results), the worker protocol (lease / heartbeat /
// result), and an unauthenticated /healthz liveness probe.
type Server struct {
	co     *Coordinator
	cfg    ServerConfig
	ln     net.Listener
	srv    *http.Server
	cancel context.CancelFunc
}

// NewServer binds the address, starts serving co, and starts the periodic
// lease-expiry scan.
func NewServer(co *Coordinator, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("fabric: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{co: co, cfg: cfg, ln: ln}

	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathCampaigns, s.auth(s.handleSubmit))
	mux.HandleFunc("GET "+PathCampaigns, s.auth(s.handleList))
	mux.HandleFunc("GET "+PathCampaigns+"/{id}", s.auth(s.handleStatus))
	mux.HandleFunc("GET "+PathCampaigns+"/{id}/results", s.auth(s.handleResults))
	mux.HandleFunc("POST "+PathLease, s.auth(s.handleLease))
	mux.HandleFunc("POST "+PathHeartbeat, s.auth(s.handleHeartbeat))
	mux.HandleFunc("POST "+PathResult, s.auth(s.handleResult))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})

	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	every := cfg.ExpireEvery
	if every <= 0 {
		every = co.cfg.leaseTTL() / 4
		if every < 10*time.Millisecond {
			every = 10 * time.Millisecond
		}
	}
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				co.ExpireLeases()
			}
		}
	}()

	// Slowloris armor: a client must deliver its headers within 5s and its
	// whole request within 30s, and idle keep-alive connections are
	// reclaimed after 2 minutes. No write timeout is set: every response
	// is one JSON document, bounded by the campaign's size.
	s.srv = &http.Server{
		Handler:           http.MaxBytesHandler(mux, cfg.maxBody()),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the expiry scan and the HTTP server. The coordinator (and
// its journals) stays usable; close it separately.
func (s *Server) Close() error {
	s.cancel()
	return s.srv.Close()
}

// auth wraps an API handler with bearer-token authentication.
func (s *Server) auth(h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.Token == "" {
		return h
	}
	want := []byte(s.cfg.Token)
	return func(w http.ResponseWriter, r *http.Request) {
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(got), want) != 1 {
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		// Bodies are capped by MaxBytesHandler; blowing the cap is its own
		// status, not a generic parse failure.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	if !readJSON(w, r, &spec) {
		return
	}
	resp, err := s.co.Submit(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.co.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.co.Status(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	res, err := s.co.Results(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, res)
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	lease, ok := s.co.Lease(req.Worker)
	if !ok {
		w.WriteHeader(http.StatusNoContent) // nothing queued: poll again later
		return
	}
	writeJSON(w, lease)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, HeartbeatResponse{OK: s.co.Heartbeat(req)})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := s.co.Result(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, resp)
}
