// Package client is the Go client for the tcrd daemon API. It owns the
// retry contract the daemon's degradation tiers assume: per-attempt
// timeouts, jittered exponential backoff that honors Retry-After on 429
// and 503, idempotent-request hedging (every tcrd request is
// content-addressed, so duplicates are harmless), and budget propagation —
// the remaining context deadline rides into the wire request's timeout_ms,
// shrinking margin by margin on each retry so the daemon never works past
// the caller's budget. Degraded responses (stale-but-certified artifacts
// served under overload or a tripped breaker) are surfaced, not hidden:
// Meta carries the X-TCR-Degraded and X-TCR-Staleness headers so callers
// decide whether stale is good enough.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"tcr/internal/store"
)

// Config parameterizes a Client; zero fields select the defaults.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7421" (required).
	BaseURL string
	// HTTPClient overrides the transport (default http.DefaultClient).
	HTTPClient *http.Client
	// MaxAttempts bounds tries per request, first included (default 4).
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff (default 100ms); each
	// retry doubles it up to MaxBackoff (default 5s), jittered to [d/2, d].
	// A server Retry-After longer than the computed backoff wins.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// AttemptTimeout bounds each attempt independently of the caller's
	// context; 0 leaves only the context deadline.
	AttemptTimeout time.Duration
	// HedgeDelay, when positive, launches a second identical attempt if
	// the first has not answered within it; the first response wins and
	// the loser is cancelled. Safe because tcrd requests are idempotent.
	HedgeDelay time.Duration
	// BudgetMargin is subtracted from the remaining context budget before
	// propagating it as timeout_ms, leaving room for the network hop and
	// response handling (default 50ms).
	BudgetMargin time.Duration
	// Seed drives backoff jitter; identical seeds replay identical jitter.
	Seed uint64
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 4
	}
	return c.MaxAttempts
}

func (c Config) baseBackoff() time.Duration {
	if c.BaseBackoff <= 0 {
		return 100 * time.Millisecond
	}
	return c.BaseBackoff
}

func (c Config) maxBackoff() time.Duration {
	if c.MaxBackoff <= 0 {
		return 5 * time.Second
	}
	return c.MaxBackoff
}

func (c Config) budgetMargin() time.Duration {
	if c.BudgetMargin <= 0 {
		return 50 * time.Millisecond
	}
	return c.BudgetMargin
}

// Meta describes how a response was obtained: how many attempts it took,
// whether the winning response came off a hedge, and the degradation
// disclosure headers when the daemon served a stale neighbor.
type Meta struct {
	// Status is the final HTTP status.
	Status int
	// Attempts counts tries, the successful one included.
	Attempts int
	// Hedged reports that a hedge request was launched for the winning
	// attempt.
	Hedged bool
	// Degraded is the X-TCR-Degraded header: "" for a fresh artifact, else
	// "overload", "breaker-open", or "solver-failure".
	Degraded string
	// StalenessSec is the X-TCR-Staleness header: the served artifact's
	// age in seconds. Only meaningful when Degraded is set.
	StalenessSec int64
	// Fallback and FallbackFingerprint identify the substituted artifact.
	Fallback            string
	FallbackFingerprint string
}

// IsDegraded reports whether the response is a stale fallback rather than
// the requested artifact.
func (m Meta) IsDegraded() bool { return m.Degraded != "" }

// APIError is a non-200 answer from the daemon, decoded from its JSON
// error envelope.
type APIError struct {
	Status      int
	Message     string
	Diagnostics string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("tcrd: status %d: %s", e.Status, e.Message)
}

// Client is a tcrd API client. Safe for concurrent use.
type Client struct {
	cfg Config
	hc  *http.Client

	mu  sync.Mutex
	rng uint64

	// sleep is the backoff wait, injectable so tests can observe and skip
	// real delays.
	sleep func(ctx context.Context, d time.Duration) error
}

// New builds a client for the daemon at cfg.BaseURL.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("client: Config.BaseURL is required")
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{
		cfg:   cfg,
		hc:    hc,
		rng:   cfg.Seed*2862933555777941757 + 3037000493,
		sleep: sleepCtx,
	}, nil
}

// Eval fetches (computing if needed) the evaluation artifact for req.
func (c *Client) Eval(ctx context.Context, req store.EvalRequest) (store.EvalArtifact, Meta, error) {
	var art store.EvalArtifact
	meta, err := c.doJSON(ctx, "/v1/eval", func(tms int64) ([]byte, error) {
		return json.Marshal(store.EvalWire{EvalRequest: req, TimeoutMS: tms})
	}, &art)
	return art, meta, err
}

// WorstPerm fetches the adversarial-permutation certificate for req.
func (c *Client) WorstPerm(ctx context.Context, req store.WorstPermRequest) (store.WorstPermArtifact, Meta, error) {
	var art store.WorstPermArtifact
	meta, err := c.doJSON(ctx, "/v1/worstperm", func(tms int64) ([]byte, error) {
		return json.Marshal(store.WorstPermWire{WorstPermRequest: req, TimeoutMS: tms})
	}, &art)
	return art, meta, err
}

// Design fetches the LP design artifact for req; maxRounds > 0 bounds the
// cutting-plane rounds (a budget, outside the fingerprint).
func (c *Client) Design(ctx context.Context, req store.DesignRequest, maxRounds int) (store.DesignArtifact, Meta, error) {
	var art store.DesignArtifact
	meta, err := c.doJSON(ctx, "/v1/design", func(tms int64) ([]byte, error) {
		return json.Marshal(store.DesignWire{DesignRequest: req, MaxRounds: maxRounds, TimeoutMS: tms})
	}, &art)
	return art, meta, err
}

// Pareto fetches the tradeoff-curve artifact for req.
func (c *Client) Pareto(ctx context.Context, req store.ParetoRequest, maxRounds int) (store.ParetoArtifact, Meta, error) {
	var art store.ParetoArtifact
	meta, err := c.doJSON(ctx, "/v1/pareto", func(tms int64) ([]byte, error) {
		return json.Marshal(store.ParetoWire{ParetoRequest: req, MaxRounds: maxRounds, TimeoutMS: tms})
	}, &art)
	return art, meta, err
}

// Raw posts a request and returns the canonical payload bytes — what the
// CLI's -json mode emits. encodeReq is re-invoked per attempt with the
// current remaining budget.
func (c *Client) Raw(ctx context.Context, path string, encodeReq func(timeoutMS int64) ([]byte, error)) ([]byte, Meta, error) {
	return c.do(ctx, wireReq{path: path, encode: encodeReq})
}

// wireReq is one logical request the retry engine replays: the JSON default
// suits every artifact endpoint; the observe path overrides the content
// type (NDJSON) and adds the tenant header.
type wireReq struct {
	path        string
	contentType string // default application/json
	header      http.Header
	encode      func(timeoutMS int64) ([]byte, error)
	// noHedge disables hedging for requests that are not idempotent (an
	// observe batch ingested twice counts twice).
	noHedge bool
}

func (c *Client) doJSON(ctx context.Context, path string, encode func(int64) ([]byte, error), out any) (Meta, error) {
	b, meta, err := c.do(ctx, wireReq{path: path, encode: encode})
	if err != nil {
		return meta, err
	}
	if err := json.Unmarshal(b, out); err != nil {
		return meta, fmt.Errorf("client: %s: undecodable artifact: %w", path, err)
	}
	return meta, nil
}

// attemptResult is one attempt's outcome.
type attemptResult struct {
	payload    []byte
	meta       Meta
	retryAfter time.Duration
	err        error
	retryable  bool
}

// do is the retry engine: attempts (hedged when configured) with jittered
// exponential backoff between them, Retry-After respected, the context's
// shrinking budget re-encoded into every attempt.
func (c *Client) do(ctx context.Context, wr wireReq) ([]byte, Meta, error) {
	max := c.cfg.maxAttempts()
	var last attemptResult
	for attempt := 1; attempt <= max; attempt++ {
		last = c.attempt(ctx, wr)
		last.meta.Attempts = attempt
		if last.err == nil {
			return last.payload, last.meta, nil
		}
		if !last.retryable || attempt == max || ctx.Err() != nil {
			break
		}
		wait := c.backoff(attempt)
		if last.retryAfter > wait {
			wait = last.retryAfter
		}
		if err := c.sleep(ctx, wait); err != nil {
			return nil, last.meta, fmt.Errorf("client: %s: %w (last attempt: %v)", wr.path, err, last.err)
		}
	}
	return nil, last.meta, last.err
}

// attempt runs one (possibly hedged) attempt under the per-attempt
// timeout. With hedging, the first response wins: a success cancels the
// other leg; if both legs fail the first failure is reported.
func (c *Client) attempt(ctx context.Context, wr wireReq) attemptResult {
	actx := ctx
	cancel := context.CancelFunc(func() {})
	if c.cfg.AttemptTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	}
	defer cancel()
	if c.cfg.HedgeDelay <= 0 || wr.noHedge {
		return c.once(actx, wr)
	}

	hctx, hcancel := context.WithCancel(actx)
	defer hcancel()
	ch := make(chan attemptResult, 2)
	launch := func() {
		go func() { ch <- c.once(hctx, wr) }()
	}
	launch()
	launched := 1
	timer := time.NewTimer(c.cfg.HedgeDelay)
	defer timer.Stop()
	var firstFail *attemptResult
	for {
		select {
		case r := <-ch:
			r.meta.Hedged = launched > 1
			if r.err == nil {
				hcancel() // the slower leg's work is wasted, not waited for
				return r
			}
			if launched > 1 && firstFail == nil {
				firstFail = &r
				continue // the other leg may still succeed
			}
			if firstFail != nil {
				return *firstFail
			}
			return r
		case <-timer.C:
			if launched == 1 {
				launched = 2
				launch()
			}
		}
	}
}

// once performs a single HTTP exchange, propagating the remaining context
// budget (minus margin) as the wire timeout_ms.
func (c *Client) once(ctx context.Context, wr wireReq) attemptResult {
	path := wr.path
	var tms int64
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl) - c.cfg.budgetMargin()
		if rem <= 0 {
			return attemptResult{err: fmt.Errorf("client: %s: %w", path, context.DeadlineExceeded)}
		}
		tms = rem.Milliseconds()
		if tms < 1 {
			tms = 1
		}
	}
	body, err := wr.encode(tms)
	if err != nil {
		return attemptResult{err: fmt.Errorf("client: %s: encode: %w", path, err)}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return attemptResult{err: fmt.Errorf("client: %s: %w", path, err)}
	}
	ct := wr.contentType
	if ct == "" {
		ct = "application/json"
	}
	req.Header.Set("Content-Type", ct)
	for k, vs := range wr.header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Transport failures are retryable unless the caller's context is
		// the reason.
		return attemptResult{err: fmt.Errorf("client: %s: %w", path, err), retryable: ctx.Err() == nil}
	}
	//lint:ignore errdrop body-close failure cannot invalidate bytes already read and checked
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return attemptResult{err: fmt.Errorf("client: %s: read: %w", path, err), retryable: ctx.Err() == nil}
	}
	meta := metaFromResponse(resp)
	if resp.StatusCode == http.StatusOK {
		return attemptResult{payload: b, meta: meta}
	}
	apiErr := &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(b))}
	var envelope struct {
		Error       string `json:"error"`
		Diagnostics string `json:"diagnostics"`
	}
	if json.Unmarshal(b, &envelope) == nil && envelope.Error != "" {
		apiErr.Message = envelope.Error
		apiErr.Diagnostics = envelope.Diagnostics
	}
	return attemptResult{
		meta:       meta,
		err:        apiErr,
		retryable:  retryableStatus(resp.StatusCode),
		retryAfter: retryAfter(resp),
	}
}

func metaFromResponse(resp *http.Response) Meta {
	m := Meta{
		Status:              resp.StatusCode,
		Degraded:            resp.Header.Get("X-TCR-Degraded"),
		Fallback:            resp.Header.Get("X-TCR-Fallback"),
		FallbackFingerprint: resp.Header.Get("X-TCR-Fallback-Fingerprint"),
	}
	if v := resp.Header.Get("X-TCR-Staleness"); v != "" {
		if sec, err := strconv.ParseInt(v, 10, 64); err == nil {
			m.StalenessSec = sec
		}
	}
	return m
}

// retryableStatus: overload (429), transient server trouble (500, 502,
// 503), and expired server-side budgets (504) are worth retrying; other
// 4xx are the caller's bug and fail fast.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	sec, err := strconv.Atoi(v)
	if err != nil || sec < 0 {
		return 0
	}
	return time.Duration(sec) * time.Second
}

// backoff computes the jittered exponential wait before retry #attempt+1:
// base·2^(attempt-1) capped at MaxBackoff, jittered into [d/2, d] by the
// seeded generator so retry storms decorrelate deterministically per seed.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.baseBackoff()
	for i := 1; i < attempt && d < c.cfg.maxBackoff(); i++ {
		d *= 2
	}
	if d > c.cfg.maxBackoff() {
		d = c.cfg.maxBackoff()
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(c.rand()%uint64(half+1))
}

// rand steps the client's seeded LCG.
func (c *Client) rand() uint64 {
	c.mu.Lock()
	c.rng = c.rng*6364136223846793005 + 1442695040888963407
	r := c.rng >> 11
	c.mu.Unlock()
	return r
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
