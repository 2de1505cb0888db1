package main

// tcrd-mixed: the serving path under an open-loop request mix. An
// in-process daemon (serve.New on a fresh store) listens on loopback; the
// benchmark is its only client, with at most two connections.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tcr/internal/serve"
	"tcr/internal/store"
)

const (
	// tcrdRate is the arrival rate: a 20 s run sends 1600 warm, 200 cold
	// and 200 observe requests.
	tcrdRate = 100.0
	// tcrdConns bounds the client's connections; a due request waits for
	// a free one, and that wait counts in its latency.
	tcrdConns = 2
	// coldSamples sizes each cold eval's average case (the sampled
	// matrices are generated per request from its fresh seed).
	coldSamples = 8
	// coldAvgTol is the average-case check's tolerance at 8 samples.
	coldAvgTol = 0.03
	// observeBatch is the samples per observe request; onlineN is the
	// online loop's node count (its default radix 4).
	observeBatch = 256
	onlineN      = 16
	// shiftCount weights each shifted sample so that the first shifted
	// batch outweighs the estimator's decayed history many times over:
	// the drift trips once, and the estimate the re-solve is tuned to is
	// already the new pattern, so no second trip follows.
	shiftCount = 64
	// The stable tenant never shifts; the shifting one does at the
	// schedule's midpoint. The shifting tenant is bootstrapped first so its
	// warm-start slot holds the first solve's final LP state.
	tenantStable = "stable"
	tenantShift  = "shift"
)

var tableAlgs = []string{"DOR", "ROMM", "RLB", "RLBth", "VAL", "IVAL"}

// artifact is a primed warm-set entry: the request and the SHA-256 of the
// response its cold computation served.
type artifact struct {
	path    string
	body    []byte
	kind    string
	fp      string
	payload []byte
	sum     [sha256.Size]byte
}

type tcrd struct {
	opt      options
	dir      string
	srv      *serve.Server
	hs       *http.Server
	base     string
	client   *http.Client
	served   chan error
	warm     []*artifact
	steady   map[string][]byte // each tenant's steady observe batch
	shifted  []byte
	closeErr error
	closed   sync.Once
}

func setupTcrd(ctx context.Context, opt options) (instance, error) {
	dir, err := os.MkdirTemp(opt.workDir, "tcrd-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{StoreDir: dir, OnlineSeed: uint64(opt.seed)})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Close(), os.RemoveAll(dir))
	}
	w := &tcrd{
		opt:    opt,
		dir:    dir,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     tcrdConns,
			MaxIdleConnsPerHost: tcrdConns,
			DisableCompression:  true,
		}},
	}
	go func() { w.served <- w.hs.Serve(ln) }()
	w.makeObserveBodies(opt.seed)
	if err := w.prime(ctx); err != nil {
		return nil, errors.Join(err, w.close())
	}
	return w, nil
}

// makeObserveBodies builds the NDJSON batches. Each tenant's steady
// traffic is spread evenly over its own 32 seeded pairs; the shift moves the
// shifting tenant onto 4 other pairs. Patterns of at most the estimator's
// 64 heavy hitters are tracked exactly, so steady traffic reads as zero
// drift and only the shift can trip a re-solve.
func (w *tcrd) makeObserveBodies(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var pairs [][2]int
	for s := 0; s < onlineN; s++ {
		for d := 0; d < onlineN; d++ {
			if s != d {
				pairs = append(pairs, [2]int{s, d})
			}
		}
	}
	perm := rng.Perm(len(pairs))
	batch := func(idx []int, count int) []byte {
		var buf bytes.Buffer
		for i := 0; i < observeBatch; i++ {
			p := pairs[idx[i%len(idx)]]
			if count > 1 {
				fmt.Fprintf(&buf, "{\"src\":%d,\"dst\":%d,\"count\":%d}\n", p[0], p[1], count)
			} else {
				fmt.Fprintf(&buf, "{\"src\":%d,\"dst\":%d}\n", p[0], p[1])
			}
		}
		return buf.Bytes()
	}
	w.steady = map[string][]byte{tenantStable: batch(perm[:32], 1), tenantShift: batch(perm[32:64], 1)}
	w.shifted = batch(perm[64:68], shiftCount)
}

// prime fills the warm set through the daemon's own cold path and
// bootstraps both tenants' online designs.
func (w *tcrd) prime(ctx context.Context) error {
	add := func(path, kind string, req interface{ Fingerprint() (string, error) }) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		fp, err := req.Fingerprint()
		if err != nil {
			return err
		}
		code, payload, _, err := w.post(ctx, path, "", body)
		if err != nil {
			return fmt.Errorf("priming %s %s: %w", path, body, err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("priming %s %s: status %d: %s", path, body, code, payload)
		}
		w.warm = append(w.warm, &artifact{path: path, body: body, kind: kind, fp: fp, payload: payload, sum: sha256.Sum256(payload)})
		return nil
	}
	if err := add("/v1/design", store.KindDesign, store.DesignRequest{K: 4, Kind: store.DesignMinLocality}); err != nil {
		return err
	}
	if err := add("/v1/design", store.KindDesign, store.DesignRequest{K: 6, Kind: store.DesignWorstCase, HNorm: 1.25}); err != nil {
		return err
	}
	if err := add("/v1/pareto", store.KindPareto, store.ParetoRequest{K: 4, HMin: 1, HMax: 1.5, Points: 5}); err != nil {
		return err
	}
	for _, alg := range tableAlgs {
		if err := add("/v1/eval", store.KindEval, store.EvalRequest{K: 8, Alg: alg}); err != nil {
			return err
		}
		if err := add("/v1/worstperm", store.KindWorstPerm, store.WorstPermRequest{K: 8, Alg: alg}); err != nil {
			return err
		}
	}
	for _, a := range w.warm {
		if err := checkArtifact(a); err != nil {
			return fmt.Errorf("primed %s %s: %w", a.path, a.body, err)
		}
	}
	for _, tenant := range []string{tenantShift, tenantStable} {
		or, err := w.observe(ctx, tenant, w.steady[tenant])
		if err != nil {
			return err
		}
		if !or.Trip {
			return fmt.Errorf("tenant %s bootstrap batch did not trip", tenant)
		}
		if _, err := w.waitPublished(ctx, tenant, ""); err != nil {
			return err
		}
		// Two batches serve the post-publish cooloff; the third re-arms
		// the controller.
		for i := 0; i < 3; i++ {
			if _, err := w.observe(ctx, tenant, w.steady[tenant]); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkArtifact validates a primed cold response's content.
func checkArtifact(a *artifact) error {
	switch a.kind {
	case store.KindDesign:
		var art store.DesignArtifact
		if err := json.Unmarshal(a.payload, &art); err != nil {
			return err
		}
		if !art.Certified {
			return fmt.Errorf("design uncertified: %s", art.Reason)
		}
	case store.KindPareto:
		var art store.ParetoArtifact
		if err := json.Unmarshal(a.payload, &art); err != nil {
			return err
		}
		if len(art.Points) != 5 {
			return fmt.Errorf("pareto has %d points, want 5", len(art.Points))
		}
	case store.KindEval:
		return checkEvalArtifact(a.payload, false)
	case store.KindWorstPerm:
		var art store.WorstPermArtifact
		if err := json.Unmarshal(a.payload, &art); err != nil {
			return err
		}
		for _, want := range evalWant {
			if want.alg == art.Request.Alg {
				return near(want.alg+" (k=%d) worst-case fraction", art.Request.K, art.WCFraction, want.wc, evalTol)
			}
		}
		return fmt.Errorf("unexpected algorithm %q", art.Request.Alg)
	}
	return nil
}

// checkEvalArtifact checks an eval response against the k=8 table; the
// average case only when the request sampled one.
func checkEvalArtifact(payload []byte, withAvg bool) error {
	var art store.EvalArtifact
	if err := json.Unmarshal(payload, &art); err != nil {
		return err
	}
	for _, want := range evalWant {
		if want.alg != art.Request.Alg {
			continue
		}
		k := art.Request.K
		if err := near(want.alg+" (k=%d) H", k, art.HNorm, want.h, evalTol); err != nil {
			return err
		}
		if err := near(want.alg+" (k=%d) worst-case fraction", k, art.WCFraction, want.wc, evalTol); err != nil {
			return err
		}
		if withAvg {
			return near(want.alg+" (k=%d) average-case fraction", k, art.AvgFraction, want.avg, coldAvgTol)
		}
		return nil
	}
	return fmt.Errorf("unexpected algorithm %q", art.Request.Alg)
}

// post sends one request over the client's connections.
func (w *tcrd) post(ctx context.Context, path, tenant string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if tenant != "" {
		req.Header.Set("X-TCR-Tenant", tenant)
		req.Header.Set("Content-Type", "application/x-ndjson")
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, b, resp.Header, err
}

// onlineState is the part of the daemon's observe/status answer the
// benchmark reads.
type onlineState struct {
	Accepted    int     `json:"accepted"`
	Trip        bool    `json:"trip"`
	Resolving   bool    `json:"resolving"`
	ServedFP    string  `json:"served_fp"`
	ServedHNorm float64 `json:"served_hnorm"`
}

func (w *tcrd) observe(ctx context.Context, tenant string, body []byte) (onlineState, error) {
	code, b, _, err := w.post(ctx, "/v1/observe", tenant, body)
	if err != nil {
		return onlineState{}, err
	}
	return decodeObserve(code, b)
}

func decodeObserve(code int, b []byte) (onlineState, error) {
	var st onlineState
	if code != http.StatusOK {
		return st, fmt.Errorf("observe: status %d: %s", code, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return st, err
	}
	if st.Accepted != observeBatch {
		return st, fmt.Errorf("observe accepted %d of %d samples", st.Accepted, observeBatch)
	}
	return st, nil
}

// local calls the daemon's handler in process, without a connection: the
// benchmark's status polls and metric scrapes.
func (w *tcrd) local(path string) (int, []byte) {
	rec := httptest.NewRecorder()
	w.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.Bytes()
}

// waitPublished polls a tenant's online status until a design other than
// notFP is served and no re-solve runs.
func (w *tcrd) waitPublished(ctx context.Context, tenant, notFP string) (onlineState, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, b := w.local("/v1/online/" + tenant)
		var st onlineState
		if code != http.StatusOK {
			return st, fmt.Errorf("online status %s: %d %s", tenant, code, b)
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return st, err
		}
		if st.ServedFP != "" && st.ServedFP != notFP && !st.Resolving {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("tenant %s: no design published within 60s", tenant)
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// scrape reads the daemon's /metrics in process.
func (w *tcrd) scrape() map[string]float64 {
	_, b := w.local("/metrics")
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// sumPrefix adds every series of a metric family, in series order.
func sumPrefix(m map[string]float64, family string) float64 {
	var keys []string
	for k := range m {
		if k == family || strings.HasPrefix(k, family+"{") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var s float64
	for _, k := range keys {
		s += m[k]
	}
	return s
}

// request is one scheduled arrival.
type request struct {
	due    time.Duration // from the schedule start
	class  string        // warm, cold, observe
	path   string
	tenant string
	body   []byte
	warm   *artifact
}

// schedule draws the open-loop arrivals: evenly spaced at tcrdRate over
// the run length, with exactly 80% warm replays, 10% cold evals and 10%
// observe batches in seeded order, which alone decides when cold requests
// bunch up.
func (w *tcrd) schedule(length time.Duration, coldBase int64) ([]request, error) {
	rng := rand.New(rand.NewSource(w.opt.seed))
	n := int(tcrdRate * length.Seconds())
	classes := make([]string, n)
	for i := range classes {
		switch {
		case i < n/10:
			classes[i] = "cold"
		case i < n/5:
			classes[i] = "observe"
		default:
			classes[i] = "warm"
		}
	}
	rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	reqs := make([]request, 0, n)
	nObserve := 0
	for i, c := range classes {
		r := request{due: time.Duration(i) * length / time.Duration(n), class: c}
		switch c {
		case "warm":
			r.warm = w.warm[rng.Intn(len(w.warm))]
			r.path, r.body = r.warm.path, r.warm.body
		case "cold":
			req := store.EvalRequest{K: 8, Alg: tableAlgs[rng.Intn(len(tableAlgs))], Samples: coldSamples, Seed: coldBase + int64(i)}
			r.path = "/v1/eval"
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			r.body = body
		case "observe":
			r.path = "/v1/observe"
			r.tenant = tenantStable
			if nObserve%2 == 1 {
				r.tenant = tenantShift
			}
			nObserve++
			if r.tenant == tenantShift && r.due >= length/2 {
				r.body = w.shifted
			} else {
				r.body = w.steady[r.tenant]
			}
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

func (w *tcrd) unit(ctx context.Context, tr *tracer) (unitResult, error) {
	st, err := w.waitPublished(ctx, tenantShift, "")
	if err != nil {
		return unitResult{}, err
	}
	servedBefore := st.ServedFP
	reqs, err := w.schedule(w.opt.seconds, w.opt.seed*1_000_003+1)
	if err != nil {
		return unitResult{}, err
	}
	before := w.scrape()

	calls := make([]call, len(reqs))
	late := make([]float64, len(reqs))
	var trips [2]atomic.Int64         // stable, shift
	tripAt := make(chan time.Time, 1) // sent once, on the shift's first trip
	var next atomic.Int64
	var wg sync.WaitGroup
	stopSampling := make(chan struct{})
	var samplerDone sync.WaitGroup
	var queueMax float64
	if tr != nil {
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampling:
					return
				case <-tick.C:
					queueMax = math.Max(queueMax, w.scrape()["tcrd_queue_depth"])
				}
			}
		}()
	}
	// The watcher times the one re-solve the shift trips, from the trip
	// to the publish, while the schedule keeps running.
	type outcome struct {
		d   time.Duration
		st  onlineState
		err error
	}
	resolved := make(chan outcome, 1)
	noTrip := make(chan struct{})
	go func() {
		select {
		case t0 := <-tripAt:
			st, err := w.waitPublished(ctx, tenantShift, servedBefore)
			resolved <- outcome{time.Since(t0), st, err}
		case <-noTrip:
			resolved <- outcome{err: errors.New("no re-solve tripped")}
		}
	}()
	start := time.Now()
	var lastDone atomic.Int64
	for c := 0; c < tcrdConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				due := start.Add(r.due)
				if d := time.Until(due); d > 0 {
					select {
					case <-ctx.Done():
						return
					case <-time.After(d):
					}
				}
				late[i] = float64(time.Since(due)) / float64(time.Millisecond)
				code, body, _, err := w.post(ctx, r.path, r.tenant, r.body)
				done := time.Now()
				if err == nil {
					err = w.checkResponse(r, code, body, &trips, tripAt, done)
				}
				calls[i] = call{class: r.class, d: done.Sub(due), err: err}
				for {
					prev := lastDone.Load()
					if done.UnixNano() <= prev || lastDone.CompareAndSwap(prev, done.UnixNano()) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	close(noTrip)
	res := <-resolved
	if err := ctx.Err(); err != nil {
		close(stopSampling)
		samplerDone.Wait()
		return unitResult{}, err
	}
	makespan := time.Unix(0, lastDone.Load()).Sub(start)

	// The shift trips exactly one re-solve. The status poll runs every
	// 2 ms, so the publish is seen at most one poll late.
	u := unitResult{calls: calls, wall: makespan}
	var resolveS float64
	resolveErr := res.err
	switch {
	case trips[1].Load() != 1 || trips[0].Load() != 0:
		resolveErr = fmt.Errorf("shift tenant tripped %d times and stable tenant %d times, want 1 and 0",
			trips[1].Load(), trips[0].Load())
	case resolveErr == nil && res.st.ServedHNorm <= 0:
		resolveErr = fmt.Errorf("re-solve published hnorm %g", res.st.ServedHNorm)
	case resolveErr == nil:
		resolveS = res.d.Seconds()
	}
	close(stopSampling)
	samplerDone.Wait()
	after := w.scrape()
	if d := int(math.Round(after[`tcrd_resolves_total{outcome="ok"}`] - before[`tcrd_resolves_total{outcome="ok"}`])); resolveErr == nil && d != 1 {
		resolveErr = fmt.Errorf("%d successful re-solves in the timed phase, want 1", d)
	}
	u.calls = append(u.calls, call{class: "resolve", err: resolveErr, untimed: true})
	u.figures = append(u.figures,
		figure{"resolve_s", "s", resolveS},
		figure{"gen_late_p99_ms", "ms", quantile(late, 0.99)})

	if tr != nil {
		delta := func(name string) float64 { return sumPrefix(after, name) - sumPrefix(before, name) }
		tr.set("serve.store_hits", delta("tcrd_store_hits_total"))
		tr.set("serve.store_misses", delta("tcrd_store_misses_total"))
		tr.set("serve.rejected", delta("tcrd_rejected_total"))
		tr.set("serve.timeouts", delta("tcrd_timeouts_total"))
		tr.set("serve.degraded", delta("tcrd_degraded_total"))
		tr.set("serve.solve_count", delta("tcrd_solve_seconds_count"))
		tr.set("serve.solve_s_sum", delta("tcrd_solve_seconds_sum"))
		tr.set("serve.solve_s_max", after["tcrd_solve_seconds_max"])
		tr.set("serve.queue_depth_max", queueMax)
		tr.set("online.samples", delta("tcrd_observe_samples_total"))
		tr.set("online.resolves_ok", delta(`tcrd_resolves_total{outcome="ok"}`))
		tr.set("online.resolves_err", delta(`tcrd_resolves_total{outcome="error"}`))
		tr.set("online.resolve_s", resolveS)
		tr.set("bench.gen_late_p99_ms", quantile(late, 0.99))
		byClass := map[string][]float64{}
		for _, c := range calls {
			if c.err == nil {
				byClass[c.class] = append(byClass[c.class], float64(c.d)/float64(time.Millisecond))
			}
		}
		tr.set("serve.warm_p50_ms", quantile(byClass["warm"], 0.5))
		tr.set("serve.warm_p99_ms", quantile(byClass["warm"], 0.99))
		tr.set("serve.cold_p50_ms", quantile(byClass["cold"], 0.5))
		tr.set("serve.cold_p90_ms", quantile(byClass["cold"], 0.9))
		tr.set("online.observe_p50_ms", quantile(byClass["observe"], 0.5))
		tr.set("online.observe_p90_ms", quantile(byClass["observe"], 0.9))
	}
	return u, nil
}

// checkResponse validates one timed response: warm replays must be
// byte-identical (by SHA-256) to the cold response primed for them.
func (w *tcrd) checkResponse(r *request, code int, body []byte, trips *[2]atomic.Int64, tripAt chan<- time.Time, done time.Time) error {
	switch r.class {
	case "warm":
		if code != http.StatusOK {
			return fmt.Errorf("warm %s: status %d", r.path, code)
		}
		if sha256.Sum256(body) != r.warm.sum {
			return fmt.Errorf("warm %s %s: replay differs from its cold response", r.path, r.body)
		}
	case "cold":
		if code != http.StatusOK {
			return fmt.Errorf("cold eval: status %d: %s", code, bytes.TrimSpace(body))
		}
		return checkEvalArtifact(body, true)
	case "observe":
		st, err := decodeObserve(code, body)
		if err != nil {
			return err
		}
		if st.Trip {
			i := 0
			if r.tenant == tenantShift {
				i = 1
			}
			if trips[i].Add(1) == 1 && i == 1 {
				tripAt <- done
			}
		}
	}
	return nil
}

func (w *tcrd) layerExtras(_ context.Context, tr *tracer) (err error) {
	dir, err := os.MkdirTemp(w.opt.workDir, "store-")
	if err != nil {
		return err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var puts, gets []float64
	for _, a := range w.warm {
		start := time.Now()
		if _, err := st.Put(a.kind, a.fp, store.SchemaVersion, a.payload); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(start))/float64(time.Millisecond))
	}
	for _, a := range w.warm {
		start := time.Now()
		b, _, err := st.Get(a.kind, a.fp)
		if err != nil {
			return err
		}
		gets = append(gets, float64(time.Since(start))/float64(time.Millisecond))
		if !bytes.Equal(b, a.payload) {
			return errors.New("store round trip changed an artifact")
		}
	}
	tr.set("store.put_ms", median(puts))
	tr.set("store.get_ms", median(gets))
	return nil
}

// close stops the listener, the daemon and its background re-solves, and
// removes the store; repeated calls return the first call's error.
func (w *tcrd) close() error {
	w.closed.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := w.hs.Shutdown(ctx)
		if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		w.client.CloseIdleConnections()
		if cerr := w.srv.Close(); err == nil {
			err = cerr
		}
		if rerr := os.RemoveAll(w.dir); err == nil {
			err = rerr
		}
		w.closeErr = err
	})
	return w.closeErr
}
