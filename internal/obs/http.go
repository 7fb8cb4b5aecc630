package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"

	"lgvoffload/internal/spans"
	"lgvoffload/internal/store"
)

// Response-size bounds for the JSON/JSONL routes: a multi-hour mission
// must not turn one scrape into an unbounded body. Clients page with
// ?after=<seq|id> and ?limit=.
const (
	// DefaultTimelineLimit is /timeline's page size when ?limit is absent.
	DefaultTimelineLimit = 200
	// DefaultSpanLimit is /spans's page size when ?limit is absent.
	DefaultSpanLimit = 1000
	// MaxPageLimit caps any explicit ?limit.
	MaxPageLimit = 10000
)

// InspectorConfig configures NewInspectorWith. Every field may be nil;
// the affected routes then report that the source is disabled.
type InspectorConfig struct {
	// Telemetry serves /metrics and /timeline.
	Telemetry *Telemetry
	// Trace serves /trace and /spans.
	Trace *spans.Tracer
	// Store serves the fleet dashboard: /missions, /missions/{id},
	// /fleet and /dash read mission history from it.
	Store *store.Store
	// Live serves /live (SSE). Attach it to the running mission's
	// telemetry with Telemetry.Tee to stream events as they happen.
	Live *LiveHub
	// SLO drives /health and /ready. Nil means no rules: both report OK.
	SLO *SLOEngine
}

// NewInspector returns the live inspection endpoint with telemetry and
// tracing only — the pre-dashboard surface, kept for callers that have
// no mission store. See NewInspectorWith.
func NewInspector(t *Telemetry, trace *spans.Tracer) http.Handler {
	return NewInspectorWith(InspectorConfig{Telemetry: t, Trace: trace})
}

// NewInspectorWith returns the HTTP inspection endpoint: metrics
// snapshot, recent timeline, causal trace, the persistent-mission
// dashboard and the live SSE stream, plus expvar and pprof.
//
//	/              index and quick status
//	/metrics       registry snapshot, JSON ("name{label}" keys)
//	/metrics.prom  registry snapshot, Prometheus text exposition format
//	/health        SLO judgment: 200 healthy / 503 while a rule is open
//	/ready         200 once samples observed and healthy, else 503
//	/timeline      timeline events, JSONL (?after=seq, ?limit=, default 200)
//	/trace         Chrome trace-event JSON of the span buffer
//	/spans         span buffer, JSONL (?after=id, ?limit=, default 1000)
//	/missions      stored missions, JSON (?outcome= ?seed= ?workload= ?fault= ?limit=)
//	/missions/{id} one stored mission: summary, tick series, decisions,
//	               faults and the critical-path waterfall rows
//	/fleet         cross-mission aggregates (same filters as /missions)
//	/live          SSE stream of live mission events
//	/dash          minimal HTML fleet dashboard over the endpoints above
//	/debug/vars    expvar
//	/debug/pprof   net/http/pprof
func NewInspectorWith(cfg InspectorConfig) http.Handler {
	t, trace := cfg.Telemetry, cfg.Trace
	mux := http.NewServeMux()

	mux.HandleFunc("/{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "lgvoffload inspection endpoint")
		fmt.Fprintln(w, "  /metrics       metrics snapshot (JSON)")
		fmt.Fprintln(w, "  /metrics.prom  metrics snapshot (Prometheus text format)")
		fmt.Fprintln(w, "  /health        SLO health (200/503 + JSON)")
		fmt.Fprintln(w, "  /ready         SLO readiness (200/503 + JSON)")
		fmt.Fprintln(w, "  /timeline      events (JSONL, ?after=seq ?limit=)")
		fmt.Fprintln(w, "  /trace         Chrome trace-event JSON (load in Perfetto)")
		fmt.Fprintln(w, "  /spans         span stream (JSONL, ?after=id ?limit=)")
		fmt.Fprintln(w, "  /missions      stored missions (JSON)")
		fmt.Fprintln(w, "  /missions/{id} one stored mission (JSON)")
		fmt.Fprintln(w, "  /fleet         cross-mission aggregates (JSON)")
		fmt.Fprintln(w, "  /live          live mission events (SSE)")
		fmt.Fprintln(w, "  /dash          fleet dashboard (HTML)")
		fmt.Fprintln(w, "  /debug/vars    expvar")
		fmt.Fprintln(w, "  /debug/pprof   profiling")
		if t != nil {
			fmt.Fprintf(w, "phase: %s, timeline events: %d\n", t.Phase(), len(t.Events()))
		} else {
			fmt.Fprintln(w, "telemetry: disabled")
		}
		if trace != nil {
			fmt.Fprintf(w, "spans buffered: %d\n", trace.Len())
		} else {
			fmt.Fprintln(w, "tracing: disabled")
		}
		if cfg.Store != nil {
			st := cfg.Store.Stats()
			fmt.Fprintf(w, "store: %s (%d missions, %d finished)\n", st.Path, st.Missions, st.Finished)
		} else {
			fmt.Fprintln(w, "store: disabled")
		}
		if cfg.Live != nil {
			fmt.Fprintf(w, "live subscribers: %d\n", cfg.Live.Subscribers())
		}
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if t == nil {
			fmt.Fprintln(w, "{}")
			return
		}
		t.Reg.WriteJSON(w)
	})

	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if t == nil {
			return
		}
		t.Reg.WritePrometheus(w, "lgv")
	})

	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		h := cfg.SLO.Health()
		w.Header().Set("Content-Type", "application/json")
		if !h.Healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		writeJSON(w, h)
	})

	mux.HandleFunc("/ready", func(w http.ResponseWriter, r *http.Request) {
		h := cfg.SLO.Health()
		w.Header().Set("Content-Type", "application/json")
		if !h.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		writeJSON(w, h)
	})

	mux.HandleFunc("/timeline", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if t == nil {
			return
		}
		limit := pageLimit(r, DefaultTimelineLimit)
		events := t.Events()
		if after, ok := pageAfter(r); ok {
			// Forward paging: the first limit events past seq `after`.
			i := 0
			for i < len(events) && events[i].Seq <= after {
				i++
			}
			events = events[i:]
			if len(events) > limit {
				events = events[:limit]
			}
		} else if len(events) > limit {
			// No cursor: newest tail, the pre-paging behaviour.
			events = events[len(events)-limit:]
		}
		WriteJSONL(w, events)
	})

	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if trace == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		trace.WriteChrome(w)
	})

	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if trace == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		after, _ := pageAfter(r)
		trace.WriteJSONLPage(w, after, pageLimit(r, DefaultSpanLimit))
	})

	mux.HandleFunc("/missions", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Store == nil {
			http.Error(w, "store disabled", http.StatusNotFound)
			return
		}
		writeJSON(w, cfg.Store.List(storeFilter(r)))
	})

	mux.HandleFunc("/missions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Store == nil {
			http.Error(w, "store disabled", http.StatusNotFound)
			return
		}
		md, err := cfg.Store.ReadMission(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, md)
	})

	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Store == nil {
			http.Error(w, "store disabled", http.StatusNotFound)
			return
		}
		fl, err := cfg.Store.FleetStats(storeFilter(r))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, fl)
	})

	mux.HandleFunc("/live", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Live == nil {
			http.Error(w, "live stream disabled", http.StatusNotFound)
			return
		}
		cfg.Live.ServeHTTP(w, r)
	})

	mux.HandleFunc("/dash", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		io.WriteString(w, dashHTML)
	})

	// expvar and pprof are mounted explicitly rather than relying on
	// their init-time DefaultServeMux registrations, so the inspector
	// works on any listener.
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// pageLimit reads ?limit= (or its pre-paging alias ?n=), clamped to
// [1, MaxPageLimit]; def applies when absent or invalid.
func pageLimit(r *http.Request, def int) int {
	q := r.URL.Query().Get("limit")
	if q == "" {
		q = r.URL.Query().Get("n")
	}
	v, err := strconv.Atoi(q)
	if err != nil || v <= 0 {
		return def
	}
	if v > MaxPageLimit {
		return MaxPageLimit
	}
	return v
}

// pageAfter reads the ?after= cursor (a timeline seq or span ID).
func pageAfter(r *http.Request) (uint64, bool) {
	q := r.URL.Query().Get("after")
	if q == "" {
		return 0, false
	}
	v, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// storeFilter builds a store query filter from request parameters.
func storeFilter(r *http.Request) store.Filter {
	q := r.URL.Query()
	f := store.Filter{
		Outcome:   q.Get("outcome"),
		FaultSpec: q.Get("fault"),
		Workload:  q.Get("workload"),
	}
	if s := q.Get("seed"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			f.Seed, f.HasSeed = v, true
		}
	}
	if l := q.Get("limit"); l != "" {
		if v, err := strconv.Atoi(l); err == nil && v > 0 {
			f.Limit = v
		}
	}
	return f
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}
