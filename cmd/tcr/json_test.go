package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tcr/internal/serve"
	"tcr/internal/store"
)

// These tests pin the -json contract: the CLI emits exactly the bytes the
// tcrd daemon serves for the equivalent request, and the two producers share
// artifact slots when pointed at one store.

func daemonFor(t *testing.T, storeDir string) *httptest.Server {
	t.Helper()
	s, err := serve.New(serve.Config{StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	})
	return ts
}

func daemonPost(t *testing.T, ts *httptest.Server, path, body string) []byte {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d, body %s", path, resp.StatusCode, b)
	}
	return b
}

// TestLegacyFingerprintParity pins the content addresses and canonical
// bytes of requests stored by earlier versions: the radix-form requests from
// before the topology field existed, and the worst-case design and Pareto
// requests from before their fold/cuts formulation fields were removed. Every
// such field was omitempty, so a default request must keep encoding to the
// exact same bytes and hashes — otherwise every pre-existing store artifact
// and checkpoint would be orphaned.
func TestLegacyFingerprintParity(t *testing.T) {
	cases := []struct {
		name  string
		req   interface{ Fingerprint() (string, error) }
		want  string
		bytes string // canonical encoding; empty skips the check
	}{
		{"eval-k4-DOR", store.EvalRequest{K: 4, Alg: "DOR"},
			"f5fe4908536684f3a52b3d95730010d591c450bc756205c7408b6264941c8c29",
			`{"k":4,"alg":"DOR"}`},
		{"design-k4-minloc", store.DesignRequest{K: 4, Kind: store.DesignMinLocality},
			"bc8a32a647d5a65e0aa64b2fd804c5be7f89a74b1af12e3f45ce7ec0e726da49",
			`{"k":4,"kind":"minloc"}`},
		{"design-k6-minloc", store.DesignRequest{K: 6, Kind: store.DesignMinLocality},
			"27c4adb25711c7c399f202116c6432e76df1d49d3cf067aec61f9f31e7ed3f62", ""},
		{"design-k4-wcopt-h1.25", store.DesignRequest{K: 4, Kind: store.DesignWorstCase, HNorm: 1.25},
			"951218314067688958796fc2a6e2ffdf01a583cd7dfa8da8402fbc73898f07d5",
			`{"k":4,"kind":"wcopt","hnorm":1.25}`},
		{"pareto-k6", store.ParetoRequest{K: 6, HMin: 1, HMax: 1.375, Points: 4},
			"a397d4d28cc20db103145a87188986fb635b23caf197f2351484e72f4d6a2a49",
			`{"k":6,"hmin":1,"hmax":1.375,"points":4}`},
	}
	for _, c := range cases {
		fp, err := c.req.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if fp != c.want {
			t.Errorf("%s: fingerprint %s, want %s (legacy store artifacts orphaned)", c.name, fp, c.want)
		}
		if c.bytes == "" {
			continue
		}
		b, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(b); got != c.bytes {
			t.Errorf("%s: legacy request encodes as %s, want %s", c.name, got, c.bytes)
		}
	}
}

// TestTopologyRequestValidation pins the shape rules of the explicit
// topology form: family:spec travels alone (K must be zero), and the two
// forms can never alias one fingerprint.
func TestTopologyRequestValidation(t *testing.T) {
	ok := store.DesignRequest{Topology: "mesh:4x4", Kind: store.DesignWorstCase}
	if err := ok.Validate(); err != nil {
		t.Fatalf("explicit topology rejected: %v", err)
	}
	if err := (store.EvalRequest{Topology: "torus3d:4", Alg: "DOR"}).Validate(); err != nil {
		t.Fatalf("explicit eval topology rejected: %v", err)
	}
	bad := []struct {
		name string
		req  interface{ Validate() error }
	}{
		{"k-and-topology", store.DesignRequest{K: 4, Topology: "mesh:4x4", Kind: store.DesignWorstCase}},
		{"missing-spec", store.DesignRequest{Topology: "mesh", Kind: store.DesignWorstCase}},
		{"empty-family", store.DesignRequest{Topology: ":4x4", Kind: store.DesignWorstCase}},
		{"neither", store.DesignRequest{Kind: store.DesignWorstCase}},
		{"eval-k-and-topology", store.EvalRequest{K: 4, Topology: "mesh:4x4", Alg: "DOR"}},
	}
	for _, c := range bad {
		if err := c.req.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Same request, two spellings, distinct addresses: the torus2d explicit
	// form must not silently collide with (or diverge from) a radix form —
	// producers canonicalize to the radix form before fingerprinting.
	legacy, err := store.DesignRequest{K: 4, Kind: store.DesignMinLocality}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := store.DesignRequest{Topology: "torus2d:4", Kind: store.DesignMinLocality}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if legacy == explicit {
		t.Fatal("radix and explicit torus2d forms fingerprint identically; canonicalization is load-bearing")
	}
}

// TestEvalJSONMatchesDaemon: every line of `tcr eval -json` must be
// byte-identical to the daemon's /v1/eval response for the same request.
func TestEvalJSONMatchesDaemon(t *testing.T) {
	ts := daemonFor(t, t.TempDir())
	out := captureStdout(t, func() error {
		return cmdEval(context.Background(), []string{"-k", "4", "-samples", "0", "-json"})
	})
	lines := strings.SplitAfter(out, "\n")
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1]
	}
	algs := closedForms()
	if len(lines) != len(algs) {
		t.Fatalf("%d NDJSON lines for %d algorithms", len(lines), len(algs))
	}
	for i, alg := range algs {
		want := daemonPost(t, ts, "/v1/eval", `{"k":4,"alg":"`+alg.Name()+`"}`)
		if lines[i] != string(want) {
			t.Errorf("%s: CLI line differs from daemon body\ncli:    %sdaemon: %s", alg.Name(), lines[i], want)
		}
	}
}

// TestWorstPermJSONMatchesDaemon pins the same parity for the worst-case
// certificate, including the permutation bytes.
func TestWorstPermJSONMatchesDaemon(t *testing.T) {
	ts := daemonFor(t, t.TempDir())
	out := captureStdout(t, func() error {
		return cmdWorstPerm(context.Background(), []string{"-k", "4", "-alg", "DOR", "-json"})
	})
	want := daemonPost(t, ts, "/v1/worstperm", `{"k":4,"alg":"DOR"}`)
	if out != string(want) {
		t.Fatalf("CLI artifact differs from daemon body\ncli:    %sdaemon: %s", out, want)
	}
}

// TestEvalJSONStoreReplay: a second -json -store run replays the stored
// artifacts byte-for-byte instead of recomputing.
func TestEvalJSONStoreReplay(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-k", "4", "-samples", "0", "-json", "-store", dir}
	first := captureStdout(t, func() error { return cmdEval(context.Background(), args) })
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fps, err := st.List(store.KindEval)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != len(closedForms()) {
		t.Fatalf("store holds %d eval artifacts, want %d", len(fps), len(closedForms()))
	}
	second := captureStdout(t, func() error { return cmdEval(context.Background(), args) })
	if first != second {
		t.Fatal("store replay differs from the original computation")
	}
}

// TestDesignStoreSharedWithDaemon: `tcr design -kind wcopt -store` persists
// under the store kind "minloc" (wcopt runs the lexicographic
// MinLocalityAtWorstCase), and a daemon over the same store replays that
// exact artifact for POST /v1/design {"kind":"minloc"}.
func TestDesignStoreSharedWithDaemon(t *testing.T) {
	dir := t.TempDir()
	tableJSON := captureStdout(t, func() error {
		return cmdDesign(context.Background(), []string{"-k", "4", "-kind", "wcopt", "-store", dir})
	})
	if !strings.Contains(tableJSON, "wc-opt") {
		t.Fatalf("design did not emit a routing table: %.80s", tableJSON)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := store.DesignRequest{K: 4, Kind: store.DesignMinLocality}
	fp, err := req.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	stored, _, err := st.Get(store.KindDesign, fp)
	if err != nil {
		t.Fatalf("CLI design not in the store under kind minloc: %v", err)
	}

	ts := daemonFor(t, dir)
	body := daemonPost(t, ts, "/v1/design", `{"k":4,"kind":"minloc"}`)
	if string(body) != string(stored) {
		t.Fatal("daemon served different bytes than the CLI persisted")
	}

	// The replay path also rebuilds the executable table: a second CLI run
	// must reproduce the decomposed table without re-solving.
	replayed := captureStdout(t, func() error {
		return cmdDesign(context.Background(), []string{"-k", "4", "-kind", "wcopt", "-store", dir})
	})
	if replayed != tableJSON {
		t.Fatal("replayed design decomposes to a different table")
	}
}
