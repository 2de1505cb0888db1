package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tcr/internal/design"
	"tcr/internal/eval"
	"tcr/internal/lp"
	"tcr/internal/online"
	"tcr/internal/routing"
	"tcr/internal/store"
)

// Config parameterizes a daemon; zero fields select the defaults.
type Config struct {
	// StoreDir is the artifact store root (required).
	StoreDir string
	// Workers bounds concurrently running solves (default 2).
	Workers int
	// QueueDepth bounds requests waiting for a solver slot beyond the
	// running ones; an arrival past Workers+QueueDepth in-flight misses is
	// rejected with 429 (default 8). Store hits bypass admission entirely.
	QueueDepth int
	// SolveWorkers is the per-solve parallelism handed to the engines
	// (eval sharding, Hungarian oracles); 0 means all cores.
	SolveWorkers int
	// FlowCacheEntries caps the in-memory flow-table LRU (default 64).
	FlowCacheEntries int
	// DefaultTimeout applies to requests that set no timeout_ms; 0 means
	// no deadline.
	DefaultTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long to finish before the listener is torn down (default 10s).
	DrainTimeout time.Duration
	// ShutdownTimeout bounds Close's wait for background jobs after drain;
	// past it Close returns with the jobs' round checkpoints already on
	// disk for the next daemon to resume. 0 waits indefinitely.
	ShutdownTimeout time.Duration
	// BreakerThreshold is the consecutive solver-failure count that trips
	// the circuit breaker onto store-only serving (default 5).
	BreakerThreshold int
	// BreakerCooloff is how long a tripped breaker rests before letting a
	// probe solve through (default 30s).
	BreakerCooloff time.Duration
	// JobTTL is how long a finished job's table entry outlives its
	// completion before it is garbage-collected; its artifact stays in the
	// store (default 1h).
	JobTTL time.Duration
	// JobMaxDone caps retained finished jobs regardless of age, oldest
	// evicted first (default 1024).
	JobMaxDone int
	// OnlineK is the torus radix the online design loop re-solves for; its
	// estimators size to k^2 nodes (default 4).
	OnlineK int
	// OnlineSeed seeds the per-tenant sketch hashing; identical seeds and
	// sample streams reproduce identical estimates across daemons.
	OnlineSeed uint64
	// DriftThreshold is the estimate-vs-served total-variation distance that
	// trips a re-solve (default 0.25).
	DriftThreshold float64
	// OnlineCooloff is how many observe batches must pass after a re-solve
	// completes before the next may launch (default 2).
	OnlineCooloff int
	// OnlineMinSamples gates controller decisions until a tenant's sketch
	// has ingested this much sample mass (default 64).
	OnlineMinSamples float64
	// OnlineHMax and OnlineHSteps define the locality operating-point grid
	// re-solves quantize onto (defaults 1.5 and 5).
	OnlineHMax   float64
	OnlineHSteps int
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return 2
	}
	return c.Workers
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 8
	}
	return c.QueueDepth
}

func (c Config) flowCacheEntries() int {
	if c.FlowCacheEntries <= 0 {
		return 64
	}
	return c.FlowCacheEntries
}

func (c Config) drainTimeout() time.Duration {
	if c.DrainTimeout <= 0 {
		return 10 * time.Second
	}
	return c.DrainTimeout
}

func (c Config) breakerThreshold() int {
	if c.BreakerThreshold <= 0 {
		return 5
	}
	return c.BreakerThreshold
}

func (c Config) breakerCooloff() time.Duration {
	if c.BreakerCooloff <= 0 {
		return 30 * time.Second
	}
	return c.BreakerCooloff
}

func (c Config) jobTTL() time.Duration {
	if c.JobTTL <= 0 {
		return time.Hour
	}
	return c.JobTTL
}

func (c Config) jobMaxDone() int {
	if c.JobMaxDone <= 0 {
		return 1024
	}
	return c.JobMaxDone
}

func (c Config) onlineK() int {
	if c.OnlineK <= 0 {
		return 4
	}
	return c.OnlineK
}

// hooks are white-box observation points for tests: storeHit fires when a
// request is served from the artifact store, computeStart when a solver
// actually begins work. Both may be nil.
type hooks struct {
	storeHit     func(kind, fp string)
	computeStart func(kind, fp string)
}

// Server is the tcrd daemon: HTTP handlers over the compute layer, the
// artifact store, singleflight coalescing, and bounded admission.
type Server struct {
	cfg    Config
	store  *store.Store
	cache  *eval.Cache
	online *online.Manager
	mux    *http.ServeMux
	single group
	slots  chan struct{}
	queued atomic.Int64
	met    metrics
	hooks  hooks
	jobs   jobTable
	// saveMu serializes jobs.json writers so a stale snapshot's rename
	// can never land after a fresher one (lost update).
	saveMu    sync.Mutex
	jobCtx    context.Context
	jobCancel context.CancelFunc
	wg        sync.WaitGroup
	draining  atomic.Bool
	brk       *breaker
	// now is the daemon's clock (breaker cooloffs, staleness headers, job
	// ages); injectable so tests can drive time.
	now func() time.Time
}

// errQueueFull is the admission rejection mapped to 429.
var errQueueFull = errors.New("serve: admission queue full")

// New opens (or creates) the artifact store and assembles the daemon.
func New(cfg Config) (*Server, error) {
	if cfg.StoreDir == "" {
		return nil, errors.New("serve: Config.StoreDir is required")
	}
	st, err := store.Open(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	n := cfg.onlineK() * cfg.onlineK()
	om, err := online.NewManager(online.Config{
		Dir:    filepath.Join(cfg.StoreDir, "online"),
		Sketch: online.SketchConfig{N: n, Seed: cfg.OnlineSeed},
		Controller: online.ControllerConfig{
			Threshold:  cfg.DriftThreshold,
			Cooloff:    cfg.OnlineCooloff,
			MinSamples: cfg.OnlineMinSamples,
		},
		HMax:   cfg.OnlineHMax,
		HSteps: cfg.OnlineHSteps,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		store:  st,
		cache:  eval.NewCacheLimit(cfg.flowCacheEntries()),
		online: om,
		slots:  make(chan struct{}, cfg.workers()),
		brk:    &breaker{threshold: cfg.breakerThreshold(), cooloff: cfg.breakerCooloff()},
		now:    time.Now,
	}
	s.jobCtx, s.jobCancel = context.WithCancel(context.Background())
	if err := s.loadJobs(); err != nil {
		return nil, err
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/eval", s.handleEval)
	s.mux.HandleFunc("POST /v1/worstperm", s.handleWorstPerm)
	s.mux.HandleFunc("POST /v1/design", s.handleDesign)
	s.mux.HandleFunc("POST /v1/pareto", s.handlePareto)
	s.mux.HandleFunc("POST /v1/observe", s.handleObserve)
	s.mux.HandleFunc("GET /v1/online/{tenant}", s.handleOnlineStatus)
	s.mux.HandleFunc("GET /v1/online/{tenant}/design", s.handleOnlineDesign)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler exposes the daemon's routes (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels background jobs and waits for them to drain, up to
// Config.ShutdownTimeout (0: indefinitely). In-flight design solves abort
// between cutting-plane rounds; their last checkpoint stays in the store,
// so a restarted daemon resumes rather than recomputes — which is exactly
// why a deadline expiry here is safe: the force-abandoned jobs' progress
// is already persisted, round by round.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.jobCancel()
	if d := s.cfg.ShutdownTimeout; d > 0 {
		if !waitTimeout(&s.wg, d) {
			return fmt.Errorf("serve: shutdown timeout after %v: background jobs abandoned with checkpoints persisted", d)
		}
		return nil
	}
	s.wg.Wait()
	return nil
}

// waitTimeout waits for wg up to d; false means the deadline won. The
// watcher goroutine it leaves behind exits as soon as the jobs do finish.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// Run serves on addr until ctx is cancelled, then drains gracefully:
// in-flight requests get DrainTimeout to finish, background jobs are
// cancelled (checkpointing their progress), and the job pool is awaited.
func (s *Server) Run(ctx context.Context, addr string) error {
	srv := &http.Server{Addr: addr, Handler: s.mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		s.draining.Store(true)
		shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.drainTimeout())
		defer cancel()
		//lint:ignore errdrop a failed graceful shutdown falls through to the hard Close below
		srv.Shutdown(shCtx)
	}()
	err := srv.ListenAndServe()
	<-done
	if cerr := s.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}

// acquire admits the caller to the solver pool, blocking for a free slot up
// to the request's deadline. Arrivals beyond Workers+QueueDepth in-flight
// misses are rejected immediately — bounded queueing, never unbounded pileup.
func (s *Server) acquire(ctx context.Context) error {
	n := s.queued.Add(1)
	if int(n) > s.cfg.workers()+s.cfg.queueDepth() {
		s.queued.Add(-1)
		s.met.rejected.Add(1)
		return errQueueFull
	}
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.queued.Add(-1)
		return ctx.Err()
	}
}

func (s *Server) release() {
	<-s.slots
	s.queued.Add(-1)
}

// result is the request spine shared by every artifact endpoint: coalesce
// concurrent identical requests, serve from the store when the artifact
// exists (no admission needed), otherwise admit, compute, persist (when the
// compute says so), and return the canonical payload bytes.
func (s *Server) result(ctx context.Context, kind, fp string, compute func(context.Context) (payload []byte, persist bool, err error)) ([]byte, error) {
	return s.single.do(ctx, kind+"/"+fp, func() ([]byte, error) {
		if b, _, err := s.store.Get(kind, fp); err == nil {
			s.met.storeHits.Add(1)
			if s.hooks.storeHit != nil {
				s.hooks.storeHit(kind, fp)
			}
			return b, nil
		}
		s.met.storeMisses.Add(1)
		if !s.brk.allow(s.now()) {
			return nil, errBreakerOpen
		}
		if err := s.acquire(ctx); err != nil {
			s.brk.abandonProbe()
			return nil, err
		}
		defer s.release()
		if s.hooks.computeStart != nil {
			s.hooks.computeStart(kind, fp)
		}
		start := time.Now()
		payload, persist, err := compute(ctx)
		s.met.observeSolve(time.Since(start))
		if err != nil {
			// Solver-owned failures feed the breaker; a context expiry or
			// cancellation is the client's budget speaking, not ill health.
			if ctx.Err() == nil {
				s.brk.recordFailure(s.now())
			} else {
				s.brk.abandonProbe()
			}
			return nil, err
		}
		s.brk.recordSuccess()
		if persist {
			if _, err := s.store.Put(kind, fp, store.SchemaVersion, payload); err != nil {
				return nil, err
			}
		}
		return payload, nil
	})
}

func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("malformed request body: %w", err)
	}
	return nil
}

// reqCtx derives the request's working context: an explicit timeout_ms wins,
// else the configured default, else no deadline beyond the connection's.
func (s *Server) reqCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return context.WithCancel(r.Context())
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	s.met.requests[epEval].Add(1)
	var req store.EvalWire
	if err := decode(r, &req); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	if _, _, err := evalNetwork(req.EvalRequest); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	fp, err := req.Fingerprint()
	if err != nil {
		s.fail(w, r, http.StatusInternalServerError, err)
		return
	}
	ctx, cancel := s.reqCtx(r, req.TimeoutMS)
	defer cancel()
	payload, err := s.result(ctx, store.KindEval, fp, func(ctx context.Context) ([]byte, bool, error) {
		art, err := ComputeEval(ctx, req.EvalRequest, s.cache, s.cfg.SolveWorkers)
		if err != nil {
			return nil, false, err
		}
		b, err := store.Encode(art)
		return b, err == nil, err
	})
	s.finish(w, r, ctx, payload, err, func() *staleFallback { return s.nearbyEval(req.EvalRequest) })
}

func (s *Server) handleWorstPerm(w http.ResponseWriter, r *http.Request) {
	s.met.requests[epWorstPerm].Add(1)
	var req store.WorstPermWire
	if err := decode(r, &req); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	if err := validateNamed(req.K, req.Alg, req.Validate); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	fp, err := req.Fingerprint()
	if err != nil {
		s.fail(w, r, http.StatusInternalServerError, err)
		return
	}
	ctx, cancel := s.reqCtx(r, req.TimeoutMS)
	defer cancel()
	payload, err := s.result(ctx, store.KindWorstPerm, fp, func(ctx context.Context) ([]byte, bool, error) {
		art, err := ComputeWorstPerm(ctx, req.WorstPermRequest, s.cache, s.cfg.SolveWorkers)
		if err != nil {
			return nil, false, err
		}
		b, err := store.Encode(art)
		return b, err == nil, err
	})
	// Worst-case permutations have no degradation axis: every field is
	// load-bearing, so there is no "nearby" artifact to fall back on.
	s.finish(w, r, ctx, payload, err, nil)
}

// validateNamed runs a request's shape validation plus the checks shared by
// the radix-addressed named endpoints (radix ceiling, algorithm existence).
// Eval requests, which may carry an explicit topology, go through
// evalNetwork instead so family resolution failures are admission errors.
func validateNamed(k int, alg string, validate func() error) error {
	if err := validate(); err != nil {
		return err
	}
	if err := checkRadix(k); err != nil {
		return err
	}
	if _, ok := routing.ByName(alg); !ok {
		return fmt.Errorf("unknown algorithm %q", alg)
	}
	return nil
}

func (s *Server) handleDesign(w http.ResponseWriter, r *http.Request) {
	s.met.requests[epDesign].Add(1)
	var req store.DesignWire
	if err := decode(r, &req); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	if _, err := topoFor(req.K, req.Topology); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	fp, err := req.DesignRequest.Fingerprint()
	if err != nil {
		s.fail(w, r, http.StatusInternalServerError, err)
		return
	}
	compute := s.designCompute(req.DesignRequest, fp, req.MaxRounds)
	if req.Async {
		s.submitJob(w, r, store.KindDesign, fp, compute)
		return
	}
	ctx, cancel := s.reqCtx(r, req.TimeoutMS)
	defer cancel()
	payload, err := s.result(ctx, store.KindDesign, fp, compute)
	s.finish(w, r, ctx, payload, err, func() *staleFallback { return s.nearbyDesign(req.DesignRequest) })
}

// designCompute builds the solver closure for a design request: budgets in
// the options, the checkpoint slot keyed by the request fingerprint (so a
// killed daemon's successor resumes the same file), persistence only for
// certified results — an uncertified artifact is returned to the caller but
// kept out of the store, and its checkpoint stays behind for the retry.
func (s *Server) designCompute(req store.DesignRequest, fp string, maxRounds int) func(context.Context) ([]byte, bool, error) {
	return func(ctx context.Context) ([]byte, bool, error) {
		ckpt, err := s.store.CheckpointPath(store.KindDesign, fp)
		if err != nil {
			return nil, false, err
		}
		opts := design.Options{
			MaxRounds:  maxRounds,
			Workers:    s.cfg.SolveWorkers,
			Checkpoint: ckpt,
		}
		art, err := ComputeDesign(ctx, req, opts)
		if err != nil {
			return nil, false, err
		}
		// A round budget (max_rounds) degrades to a 200 with the best
		// iterate, uncertified. A deadline is different: the client asked
		// for a bounded request, so expiry surfaces as 504 — the round
		// checkpoints already written keep the partial progress.
		if !art.Certified && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, false, fmt.Errorf(
				"design uncertified after %d rounds (%s): %w",
				art.Rounds, art.Reason, context.DeadlineExceeded)
		}
		b, err := store.Encode(art)
		if err != nil {
			return nil, false, err
		}
		return b, art.Certified, nil
	}
}

func (s *Server) handlePareto(w http.ResponseWriter, r *http.Request) {
	s.met.requests[epPareto].Add(1)
	var req store.ParetoWire
	if err := decode(r, &req); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	if err := checkRadix(req.K); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	fp, err := req.ParetoRequest.Fingerprint()
	if err != nil {
		s.fail(w, r, http.StatusInternalServerError, err)
		return
	}
	compute := func(ctx context.Context) ([]byte, bool, error) {
		art, err := ComputePareto(ctx, req.ParetoRequest, design.Options{
			MaxRounds: req.MaxRounds,
			Workers:   s.cfg.SolveWorkers,
		})
		if err != nil {
			return nil, false, err
		}
		b, err := store.Encode(art)
		return b, err == nil, err
	}
	if req.Async {
		s.submitJob(w, r, store.KindPareto, fp, compute)
		return
	}
	ctx, cancel := s.reqCtx(r, req.TimeoutMS)
	defer cancel()
	payload, err := s.result(ctx, store.KindPareto, fp, compute)
	s.finish(w, r, ctx, payload, err, func() *staleFallback { return s.nearbyPareto(req.ParetoRequest) })
}

// handleHealthz reports the health state machine: ok and degraded (breaker
// tripped, store-only serving) answer 200 — the daemon is serving — while
// draining answers 503 so load balancers stop routing to it.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	state := s.healthState()
	if state == healthDraining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeBody(w, []byte(state+"\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	g := gauges{
		queueDepth:   s.queued.Load(),
		running:      int64(len(s.slots)),
		cacheEntries: int64(s.cache.Len()),
		health:       s.healthState(),
		breakerOpen:  s.brk.isOpen(),
		breakerTrips: s.brk.tripCount(),
		jobs:         s.jobs.count(),
		drifts:       s.driftGauges(),
	}
	writeBody(w, s.met.render(g))
}

// errorBody is the JSON error envelope every failure returns.
type errorBody struct {
	Error string `json:"error"`
	// Diagnostics carries the LP recovery-ladder post-mortem when the
	// failure surfaced one (numerical failures, deadline expiry mid-solve).
	Diagnostics string `json:"diagnostics,omitempty"`
}

func (s *Server) fail(w http.ResponseWriter, _ *http.Request, status int, err error) {
	body := errorBody{Error: err.Error()}
	var de *lp.DiagError
	if errors.As(err, &de) {
		body.Diagnostics = de.Diag.Summary()
	}
	b, merr := json.Marshal(body)
	if merr != nil {
		b = []byte(`{"error":"internal"}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeBody(w, append(b, '\n'))
}

// finish maps a result-spine outcome onto the wire: success streams the
// canonical payload. Degradable failures — overload, tripped breaker,
// solver failure — first try nearby (when the endpoint has a degradation
// axis): a stale-but-certified artifact served 200 with the X-TCR-Degraded
// and X-TCR-Staleness headers. Otherwise failures classify into 429 (queue
// full, with Retry-After), 503 (breaker open, with Retry-After = cooloff;
// or daemon draining), 504 (request deadline expired, with solver
// diagnostics when available), else 500.
func (s *Server) finish(w http.ResponseWriter, r *http.Request, ctx context.Context, payload []byte, err error, nearby func() *staleFallback) {
	if err == nil {
		w.Header().Set("Content-Type", "application/json")
		writeBody(w, payload)
		return
	}
	if idx := s.degradeIndex(err, ctx.Err()); idx >= 0 && nearby != nil {
		if fb := nearby(); fb != nil {
			s.serveStale(w, idx, fb)
			return
		}
	}
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		s.fail(w, r, http.StatusTooManyRequests, err)
	case errors.Is(err, errBreakerOpen):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.cfg.breakerCooloff().Seconds())))
		s.fail(w, r, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.met.timeouts.Add(1)
		s.fail(w, r, http.StatusGatewayTimeout, fmt.Errorf("deadline expired: %w", err))
	case s.draining.Load() && errors.Is(err, context.Canceled):
		s.fail(w, r, http.StatusServiceUnavailable, errors.New("daemon draining"))
	default:
		s.fail(w, r, http.StatusInternalServerError, err)
	}
}

// writeBody sends a response body; a failed write means the client is gone
// and there is nobody left to tell.
func writeBody(w http.ResponseWriter, b []byte) {
	//lint:ignore errdrop a failed response write has no recipient
	w.Write(b)
}
