package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcr/internal/store"
)

// The daemon e2e suite drives full HTTP round trips through httptest and
// observes the solver through the white-box hooks: computeStart counts
// actual solves, storeHit counts store replays. Design cases run at k=4,
// where a certified worst-case solve takes well under a second.

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	if cfg.SolveWorkers == 0 {
		cfg.SolveWorkers = 1
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s, ts
}

// counters wires counting hooks into a server.
type counters struct {
	hits, computes atomic.Int64
}

func (c *counters) install(s *Server) {
	s.hooks.storeHit = func(string, string) { c.hits.Add(1) }
	s.hooks.computeStart = func(string, string) { c.computes.Add(1) }
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestEvalColdThenWarm(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var c counters
	c.install(s)

	status, hdr, cold := post(t, ts, "/v1/eval", `{"k":4,"alg":"IVAL"}`)
	if status != http.StatusOK {
		t.Fatalf("cold eval: status %d, body %s", status, cold)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var art store.EvalArtifact
	if err := json.Unmarshal(cold, &art); err != nil {
		t.Fatalf("response not an EvalArtifact: %v", err)
	}
	if art.Schema != store.SchemaVersion || art.Request.Alg != "IVAL" || art.GammaWC <= 0 {
		t.Fatalf("implausible artifact: %+v", art)
	}

	status, _, warm := post(t, ts, "/v1/eval", `{"k":4,"alg":"IVAL"}`)
	if status != http.StatusOK {
		t.Fatalf("warm eval: status %d", status)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm response differs from cold response")
	}
	if got := c.computes.Load(); got != 1 {
		t.Fatalf("solver ran %d times, want 1", got)
	}
	if got := c.hits.Load(); got != 1 {
		t.Fatalf("store hits %d, want 1", got)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct{ path, body string }{
		{"/v1/eval", `{"k":1,"alg":"DOR"}`},
		{"/v1/eval", `{"k":4,"alg":"NOPE"}`},
		{"/v1/eval", `{"k":4,"alg":"DOR","bogus":true}`},
		{"/v1/eval", `{"k":64000,"alg":"DOR"}`},
		{"/v1/eval", `not json`},
		{"/v1/eval", `{"topology":"mesh:3x3","alg":"DOR"}`},    // closed-form algs are torus2d-only
		{"/v1/eval", `{"topology":"hypercube:4","alg":"DOR"}`}, // unknown family
		{"/v1/eval", `{"topology":"torus3d:16","alg":"DOR"}`},  // over the node cap
		{"/v1/design", `{"topology":"hypercube:4","kind":"wcopt"}`},
		{"/v1/design", `{"topology":"torus3d:16","kind":"wcopt"}`},
		{"/v1/design", `{"topology":"mesh:","kind":"wcopt"}`},
		{"/v1/worstperm", `{"k":4}`},
		{"/v1/design", `{"k":4,"kind":"wat"}`},
		{"/v1/design", `{"k":4,"kind":"minloc","hnorm":2.0}`},
		{"/v1/pareto", `{"k":4,"hmin":2,"hmax":1,"points":3}`},
		// The worst-case formulation is not selectable: fold and cuts
		// are unknown fields.
		{"/v1/design", `{"k":4,"kind":"wcopt","fold":1}`},
		{"/v1/design", `{"k":4,"kind":"wcopt","cuts":1}`},
		{"/v1/pareto", `{"k":4,"hmin":1,"hmax":2,"points":3,"fold":1}`},
		{"/v1/pareto", `{"k":4,"hmin":1,"hmax":2,"points":3,"cuts":1}`},
	}
	for _, tc := range cases {
		status, _, body := post(t, ts, tc.path, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400 (body %s)", tc.path, tc.body, status, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("POST %s: error body %q not the JSON envelope", tc.path, body)
		}
	}
}

// TestDesignColdComputesWarmReplays pins the acceptance path: a cold design
// request computes, persists, and returns a certified artifact; the
// identical request afterwards is served from the store without touching the
// solver.
func TestDesignColdComputesWarmReplays(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var c counters
	c.install(s)

	status, _, cold := post(t, ts, "/v1/design", `{"k":4,"kind":"wcopt"}`)
	if status != http.StatusOK {
		t.Fatalf("cold design: status %d, body %s", status, cold)
	}
	var art store.DesignArtifact
	if err := json.Unmarshal(cold, &art); err != nil {
		t.Fatal(err)
	}
	if !art.Certified {
		t.Fatalf("cold design uncertified: %s", art.Reason)
	}
	if len(art.Flow) == 0 {
		t.Fatal("certified design artifact has no flow table")
	}
	fp, err := art.Request.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !s.store.Has(store.KindDesign, fp) {
		t.Fatal("certified design not persisted")
	}

	status, _, warm := post(t, ts, "/v1/design", `{"k":4,"kind":"wcopt"}`)
	if status != http.StatusOK || !bytes.Equal(cold, warm) {
		t.Fatalf("warm design replay mismatch: status %d", status)
	}
	if got := c.computes.Load(); got != 1 {
		t.Fatalf("solver ran %d times, want 1", got)
	}
}

// TestDesignCoalescing issues M identical cold requests concurrently and
// requires exactly one solver run: the singleflight group must merge them.
func TestDesignCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var c counters
	c.install(s)

	const m = 6
	bodies := make([][]byte, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, b := post(t, ts, "/v1/design", `{"k":4,"kind":"wcopt"}`)
			if status != http.StatusOK {
				t.Errorf("request %d: status %d, body %s", i, status, b)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	if got := c.computes.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran the solver %d times, want exactly 1", m, got)
	}
	for i := 1; i < m; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
}

// TestBackpressure429 fills the solver pool (Workers=1) and its queue
// (QueueDepth=1) with gated requests, then requires the next distinct
// request to be rejected with 429 + Retry-After — and the pool to drain
// cleanly once the gate opens.
func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	admitted := make(chan string, 4)
	s.hooks.computeStart = func(kind, fp string) {
		admitted <- kind + "/" + fp
		<-gate
	}

	results := make(chan int, 2)
	for _, alg := range []string{"DOR", "VAL"} {
		go func(alg string) {
			status, _, _ := post(t, ts, "/v1/eval", fmt.Sprintf(`{"k":4,"alg":%q}`, alg))
			results <- status
		}(alg)
	}
	// First request holds the only slot (blocked in the gate); second sits
	// in the queue. Wait for both to be accounted before probing.
	<-admitted
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached 2 (at %d)", s.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}

	status, hdr, body := post(t, ts, "/v1/eval", `{"k":4,"alg":"IVAL"}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429 (body %s)", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if status := <-results; status != http.StatusOK {
			t.Fatalf("gated request finished with %d", status)
		}
	}
	// The pool drained: the rejected request now succeeds.
	if status, _, _ := post(t, ts, "/v1/eval", `{"k":4,"alg":"IVAL"}`); status != http.StatusOK {
		t.Fatalf("post-drain request: status %d, want 200", status)
	}
	if s.queued.Load() != 0 {
		t.Fatalf("queue not drained: %d", s.queued.Load())
	}
}

// TestDeadline504 sends a design whose deadline cannot admit even one
// cutting-plane round and requires 504 with the JSON error envelope.
func TestDeadline504(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, _, body := post(t, ts, "/v1/design", `{"k":4,"kind":"wcopt","timeout_ms":1}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", status, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("504 body %q is not the error envelope", body)
	}
	if s.met.timeouts.Load() == 0 {
		t.Error("timeout not counted in metrics")
	}
}

// TestCheckpointResumeThroughStore extends the design package's
// TestCheckpointResumeK4 through the daemon: a budget-killed design leaves
// its checkpoint in the store (and no artifact); a fresh daemon over the
// same store resumes it and produces an artifact byte-identical to an
// uninterrupted daemon's.
func TestCheckpointResumeThroughStore(t *testing.T) {
	// Reference: an uninterrupted daemon over its own store.
	_, refTS := newTestServer(t, Config{})
	status, _, ref := post(t, refTS, "/v1/design", `{"k":4,"kind":"wcopt"}`)
	if status != http.StatusOK {
		t.Fatalf("reference design: status %d", status)
	}

	// Budget-killed run over a separate store: uncertified, unpersisted,
	// checkpoint left behind.
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: dir})
	status, _, partial := post(t, ts1, "/v1/design", `{"k":4,"kind":"wcopt","max_rounds":6}`)
	if status != http.StatusOK {
		t.Fatalf("partial design: status %d, body %s", status, partial)
	}
	var part store.DesignArtifact
	if err := json.Unmarshal(partial, &part); err != nil {
		t.Fatal(err)
	}
	if part.Certified {
		t.Fatal("6-round design certified; budget too large for the kill test")
	}
	fp, err := part.Request.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if s1.store.Has(store.KindDesign, fp) {
		t.Fatal("uncertified design was persisted")
	}
	ckpt, err := s1.store.CheckpointPath(store.KindDesign, fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("budget-killed design left no checkpoint: %v", err)
	}
	ts1.Close() // the daemon dies; its store survives

	// A fresh daemon over the same store resumes from the checkpoint and
	// matches the uninterrupted reference bit for bit.
	s2, ts2 := newTestServer(t, Config{StoreDir: dir})
	var c counters
	c.install(s2)
	status, _, resumed := post(t, ts2, "/v1/design", `{"k":4,"kind":"wcopt"}`)
	if status != http.StatusOK {
		t.Fatalf("resumed design: status %d", status)
	}
	if !bytes.Equal(resumed, ref) {
		t.Fatal("resumed artifact differs from the uninterrupted reference")
	}
	if c.computes.Load() != 1 {
		t.Fatal("resume did not go through the solver (store should have been empty)")
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint not cleared after certification: %v", err)
	}
	// And the certified resume persisted: a third daemon replays it.
	if !s2.store.Has(store.KindDesign, fp) {
		t.Fatal("resumed certified design not persisted")
	}
}

func TestJobsAPI(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var c counters
	c.install(s)

	status, _, body := post(t, ts, "/v1/design", `{"k":4,"kind":"wcopt","async":true}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, body)
	}
	var jw jobWire
	if err := json.Unmarshal(body, &jw); err != nil {
		t.Fatal(err)
	}
	if jw.ID == "" || jw.State == "" {
		t.Fatalf("job descriptor incomplete: %+v", jw)
	}
	// Resubmission attaches to the same job.
	_, _, body2 := post(t, ts, "/v1/design", `{"k":4,"kind":"wcopt","async":true}`)
	var jw2 jobWire
	if err := json.Unmarshal(body2, &jw2); err != nil {
		t.Fatal(err)
	}
	if jw2.ID != jw.ID {
		t.Fatalf("resubmission spawned a second job: %s vs %s", jw2.ID, jw.ID)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		status, b := get(t, ts, "/v1/jobs/"+jw.ID)
		if status != http.StatusOK {
			t.Fatalf("poll: status %d", status)
		}
		if err := json.Unmarshal(b, &jw); err != nil {
			t.Fatal(err)
		}
		if jw.State == jobDone {
			break
		}
		if jw.State == jobError {
			t.Fatalf("job failed: %s", jw.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", jw.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	status, result := get(t, ts, "/v1/jobs/"+jw.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("result: status %d", status)
	}
	// The job result is the canonical artifact: a synchronous request for
	// the same design replays the identical bytes.
	status, _, sync := post(t, ts, "/v1/design", `{"k":4,"kind":"wcopt"}`)
	if status != http.StatusOK || !bytes.Equal(result, sync) {
		t.Fatal("job result differs from the synchronous replay")
	}
	if c.computes.Load() != 1 {
		t.Fatalf("solver ran %d times across job + sync, want 1", c.computes.Load())
	}

	if status, _ := get(t, ts, "/v1/jobs/nope"); status != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", status)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status, b := get(t, ts, "/healthz"); status != http.StatusOK || string(b) != "ok\n" {
		t.Fatalf("healthz: %d %q", status, b)
	}

	post(t, ts, "/v1/eval", `{"k":4,"alg":"DOR"}`)
	post(t, ts, "/v1/eval", `{"k":4,"alg":"DOR"}`)
	_, mb := get(t, ts, "/metrics")
	m := string(mb)
	for _, want := range []string{
		`tcrd_requests_total{endpoint="eval"} 2`,
		"tcrd_store_hits_total 1",
		"tcrd_store_misses_total 1",
		"tcrd_queue_depth 0",
		"tcrd_running 0",
		"tcrd_flow_cache_entries 1",
		"tcrd_solve_seconds_count 1",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}

	// Draining flips healthz to 503.
	s.draining.Store(true)
	if status, b := get(t, ts, "/healthz"); status != http.StatusServiceUnavailable || string(b) != "draining\n" {
		t.Fatalf("draining healthz: %d %q", status, b)
	}
	s.draining.Store(false)
}

// TestOversizedTopologyRejectedFast checks that explicit topologies past the
// node cap, or whose node count overflows, fail validation before anything
// is built.
func TestOversizedTopologyRejectedFast(t *testing.T) {
	for _, spec := range []string{"torus3d:2100000", "torus2d:3037000500", "mesh:2x100000", "mesh:2x3000000"} {
		start := time.Now()
		if _, err := topoFor(0, spec); err == nil {
			t.Errorf("topoFor(%q) accepted an oversized topology", spec)
		}
		if el := time.Since(start); el > time.Second {
			t.Errorf("topoFor(%q) took %v to reject", spec, el)
		}
	}
}
