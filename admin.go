package webreason

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/obs"
)

// AdminHandler serves the operational surface of a Server over HTTP:
//
//	GET /metrics        every family registered on reg, Prometheus text
//	                    exposition format (version 0.0.4)
//	GET /healthz        Server.Health as JSON; 200 while serving normally,
//	                    503 once degraded (load-balancer ready signal)
//	GET /debug/slowlog  retained slow-query traces as a JSON array, oldest
//	                    first; ?threshold=50ms retunes the slow log live
//	GET /debug/pprof/*  the standard runtime profiles
//
// The handler is its own mux (not http.DefaultServeMux), so embedding it in
// a larger process never leaks the profiling endpoints onto a public
// listener by accident. reg and slow may be nil; their endpoints then serve
// empty documents. Bind the result to a loopback or otherwise trusted
// address — it exposes query text and runtime internals.
func AdminHandler(srv *Server, reg *obs.Registry, slow *obs.SlowLog) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := srv.Health()
		w.Header().Set("Content-Type", "application/json")
		if h.Degraded {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(healthJSON(h))
	})
	mux.HandleFunc("/debug/slowlog", func(w http.ResponseWriter, r *http.Request) {
		if t := r.URL.Query().Get("threshold"); t != "" {
			d, err := time.ParseDuration(t)
			if err != nil {
				http.Error(w, "bad threshold: "+err.Error(), http.StatusBadRequest)
				return
			}
			slow.SetThreshold(d)
		}
		traces := slow.Snapshot()
		if traces == nil {
			traces = []obs.QueryTrace{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(traces)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// healthView is Health with the error field rendered as a string (error
// values do not JSON-encode usefully) and durations in both native and
// human-readable form.
type healthView struct {
	Degraded      bool   `json:"degraded"`
	DegradedCause string `json:"degraded_cause,omitempty"`
	Closed        bool   `json:"closed"`
	Role          string `json:"role"`

	Enqueued uint64 `json:"enqueued"`
	Applied  uint64 `json:"applied"`
	Lag      uint64 `json:"lag"`
	Pending  int    `json:"pending"`

	Position          Position `json:"position"`
	ReplicaApplied    Position `json:"replica_applied"`
	ReplicaLagBytes   int64    `json:"replica_lag_bytes"`
	ReplicaLagRecords int64    `json:"replica_lag_records"`
	ReplicaEpoch      uint64   `json:"replica_epoch"`

	WALGeneration          uint64 `json:"wal_generation"`
	WALBytes               int64  `json:"wal_bytes"`
	WALChainBytes          int64  `json:"wal_chain_bytes"`
	WALRecords             int    `json:"wal_records"`
	LastCheckpoint         string `json:"last_checkpoint,omitempty"`
	CheckpointAge          string `json:"checkpoint_age,omitempty"`
	CheckpointFailures     int64  `json:"checkpoint_failures"`
	CheckpointRetryPending bool   `json:"checkpoint_retry_pending"`
	GCRemoveFailures       int64  `json:"gc_remove_failures"`
}

func healthJSON(h Health) healthView {
	v := healthView{
		Degraded:               h.Degraded,
		Closed:                 h.Closed,
		Role:                   h.Role.String(),
		Enqueued:               h.Enqueued,
		Applied:                h.Applied,
		Lag:                    h.Lag,
		Pending:                h.Pending,
		Position:               h.Position,
		ReplicaApplied:         h.ReplicaApplied,
		ReplicaLagBytes:        h.ReplicaLagBytes,
		ReplicaLagRecords:      h.ReplicaLagRecords,
		ReplicaEpoch:           h.ReplicaEpoch,
		WALGeneration:          h.WALGeneration,
		WALBytes:               h.WALBytes,
		WALChainBytes:          h.WALChainBytes,
		WALRecords:             h.WALRecords,
		CheckpointFailures:     h.CheckpointFailures,
		CheckpointRetryPending: h.CheckpointRetryPending,
		GCRemoveFailures:       h.GCRemoveFailures,
	}
	if h.DegradedCause != nil {
		v.DegradedCause = h.DegradedCause.Error()
	}
	if !h.LastCheckpoint.IsZero() {
		v.LastCheckpoint = h.LastCheckpoint.Format(time.RFC3339Nano)
		v.CheckpointAge = h.CheckpointAge.String()
	}
	return v
}

// ServeAdmin binds addr (e.g. "localhost:6060") and serves AdminHandler on
// it in a background goroutine, returning the listening server and the
// address it actually bound (useful with ":0"). The caller shuts it down
// with (*http.Server).Close or Shutdown. Used by the -admin flag of
// webreason serve.
func ServeAdmin(addr string, srv *Server, reg *obs.Registry, slow *obs.SlowLog) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{
		Handler:           AdminHandler(srv, reg, slow),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go hs.Serve(ln)
	return hs, ln.Addr().String(), nil
}
