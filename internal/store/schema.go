package store

import (
	"encoding/json"
	"fmt"
)

// This file defines the schema-versioned JSON blobs the store holds: one
// canonical request type per artifact kind (the fingerprint input) and one
// artifact type (the payload). The types are deliberately free of imports
// from the rest of the module — flows are plain [][]float64, algorithms are
// their names — so the daemon, the CLI's -json mode, and external tooling
// all speak exactly the same bytes. Encode is the single serializer both
// producers use, which is what makes CLI and daemon output diffable
// byte-for-byte.
//
// Each request type also has a wire envelope, the body of its tcrd endpoint:
// the request (the fingerprint input) plus per-request budgets, which stay
// outside the fingerprint so a budget-limited run and its completion share
// one artifact slot. The daemon decodes the envelopes; the client and the
// CLI's remote verbs encode them.

// SchemaVersion is the artifact schema version stamped into every payload
// and manifest; bump it when any artifact type changes incompatibly.
const SchemaVersion = 1

// Design kinds accepted in DesignRequest.Kind.
const (
	// DesignWorstCase is the pure worst-case-throughput optimum
	// (design.WorstCaseOptimal), optionally locality-constrained when
	// HNorm > 0 (design.WorstCaseAtLocality).
	DesignWorstCase = "wcopt"
	// DesignMinLocality is the lexicographic throughput-then-locality
	// design (design.MinLocalityAtWorstCase).
	DesignMinLocality = "minloc"
)

// checkTopology validates the K/Topology pair shared by the request types:
// the legacy radix form (Topology empty, K the torus radix) and the explicit
// "family:spec" form, which must travel alone so one logical request cannot
// fingerprint two ways. Family existence is resolved by the compute layer,
// like algorithm names; here only the shape is checked. The empty Topology
// is omitted from the canonical encoding, which is what keeps pre-existing
// radix-form fingerprints bit-for-bit stable.
func checkTopology(k int, topology string) error {
	if topology == "" {
		if k < 2 {
			return fmt.Errorf("radix %d out of range (need k >= 2)", k)
		}
		return nil
	}
	if k != 0 {
		return fmt.Errorf("k and topology are mutually exclusive (got k=%d, topology=%q)", k, topology)
	}
	name, spec, ok := cutColon(topology)
	if !ok || name == "" || spec == "" {
		return fmt.Errorf("malformed topology %q (want family:spec, e.g. %q)", topology, "torus3d:4")
	}
	return nil
}

// cutColon splits s around the first ':' without importing strings into the
// schema types' dependency surface.
func cutColon(s string) (before, after string, found bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

// EvalRequest asks for the paper's metrics of a closed-form algorithm.
// Samples == 0 skips the average case (and then Seed is ignored and must be
// left zero so equivalent requests share a fingerprint). The network is
// either the legacy radix form (K set, Topology empty: a k-ary 2-cube) or an
// explicit "family:spec" Topology with K zero.
type EvalRequest struct {
	K        int    `json:"k,omitempty"`
	Topology string `json:"topology,omitempty"`
	Alg      string `json:"alg"`
	Samples  int    `json:"samples,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
}

// Validate checks the request's static shape (not algorithm or family
// existence, which the compute layer resolves).
func (r EvalRequest) Validate() error {
	if err := checkTopology(r.K, r.Topology); err != nil {
		return err
	}
	if r.Alg == "" {
		return fmt.Errorf("missing algorithm name")
	}
	if r.Samples < 0 {
		return fmt.Errorf("negative sample count %d", r.Samples)
	}
	if r.Samples == 0 && r.Seed != 0 {
		return fmt.Errorf("seed set without samples")
	}
	return nil
}

// Fingerprint returns the request's content address.
func (r EvalRequest) Fingerprint() (string, error) { return Fingerprint(KindEval, r) }

// EvalWire is the /v1/eval request body.
type EvalWire struct {
	EvalRequest
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// EvalArtifact is the stored result of an EvalRequest: tcr.Metrics plus the
// normalizing network capacity.
type EvalArtifact struct {
	Schema           int         `json:"schema"`
	Request          EvalRequest `json:"request"`
	NetworkCapacity  float64     `json:"network_capacity"`
	HAvg             float64     `json:"h_avg"`
	HNorm            float64     `json:"h_norm"`
	Capacity         float64     `json:"capacity"`
	CapacityFraction float64     `json:"capacity_fraction"`
	GammaWC          float64     `json:"gamma_wc"`
	WCFraction       float64     `json:"wc_fraction"`
	AvgFraction      float64     `json:"avg_fraction,omitempty"`
}

// WorstPermRequest asks for the adversarial permutation the Hungarian
// oracle finds for an algorithm.
type WorstPermRequest struct {
	K   int    `json:"k"`
	Alg string `json:"alg"`
}

func (r WorstPermRequest) Validate() error {
	if r.K < 2 {
		return fmt.Errorf("radix %d out of range (need k >= 2)", r.K)
	}
	if r.Alg == "" {
		return fmt.Errorf("missing algorithm name")
	}
	return nil
}

// Fingerprint returns the request's content address.
func (r WorstPermRequest) Fingerprint() (string, error) { return Fingerprint(KindWorstPerm, r) }

// WorstPermWire is the /v1/worstperm request body.
type WorstPermWire struct {
	WorstPermRequest
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// WorstPermArtifact is the stored worst-case certificate: the exact
// worst-case load and a permutation achieving it (Perm[s] = d).
type WorstPermArtifact struct {
	Schema     int              `json:"schema"`
	Request    WorstPermRequest `json:"request"`
	GammaWC    float64          `json:"gamma_wc"`
	WCFraction float64          `json:"wc_fraction"`
	Perm       []int            `json:"perm"`
}

// DesignRequest asks for an LP routing design. Every field shapes the
// result and therefore the fingerprint; budgets (round limits, deadlines)
// are deliberately absent — they ride along in the wire request and the
// design Options, so a budget-killed run and its resumed completion share
// one artifact slot and one checkpoint.
type DesignRequest struct {
	K        int    `json:"k,omitempty"`
	Topology string `json:"topology,omitempty"`
	Kind     string `json:"kind"`
	// HNorm > 0 constrains DesignWorstCase to a normalized locality
	// budget (one Pareto point); 0 leaves locality free.
	HNorm float64 `json:"hnorm,omitempty"`
	// Tol and Slack mirror design.Options; zero selects the defaults.
	Tol   float64 `json:"tol,omitempty"`
	Slack float64 `json:"slack,omitempty"`
}

func (r DesignRequest) Validate() error {
	if err := checkTopology(r.K, r.Topology); err != nil {
		return err
	}
	switch r.Kind {
	case DesignWorstCase:
		//lint:ignore floatcmp 0 is the JSON omitempty sentinel for "unconstrained", not a computed value
		if r.HNorm != 0 && r.HNorm < 1 {
			return fmt.Errorf("hnorm %v out of range (need >= 1, or 0 for unconstrained)", r.HNorm)
		}
	case DesignMinLocality:
		//lint:ignore floatcmp 0 is the JSON omitempty sentinel; any explicit hnorm is invalid here
		if r.HNorm != 0 {
			return fmt.Errorf("hnorm is not a %s parameter", DesignMinLocality)
		}
	default:
		return fmt.Errorf("unknown design kind %q", r.Kind)
	}
	if r.Tol < 0 || r.Slack < 0 {
		return fmt.Errorf("negative tolerance or slack")
	}
	return nil
}

// Fingerprint returns the request's content address.
func (r DesignRequest) Fingerprint() (string, error) { return Fingerprint(KindDesign, r) }

// DesignWire is the /v1/design request body. MaxRounds bounds the
// cutting-plane rounds; Async asks for a job descriptor instead of the
// artifact.
type DesignWire struct {
	DesignRequest
	MaxRounds int   `json:"max_rounds,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	Async     bool  `json:"async,omitempty"`
}

// DesignArtifact is the stored outcome of a design solve: the certified
// metrics and the full folded-then-unfolded flow table, from which an
// executable routing table can be recovered by path decomposition at any
// later time. Only certified results are stored.
type DesignArtifact struct {
	Schema     int           `json:"schema"`
	Request    DesignRequest `json:"request"`
	Objective  float64       `json:"objective"`
	GammaWC    float64       `json:"gamma_wc"`
	HAvg       float64       `json:"h_avg"`
	HNorm      float64       `json:"h_norm"`
	Rounds     int           `json:"rounds"`
	Iterations int           `json:"iterations"`
	Certified  bool          `json:"certified"`
	Reason     string        `json:"reason,omitempty"`
	// Flow[rel][c] is the designed routing function's channel-load table
	// (eval.Flow.X).
	Flow [][]float64 `json:"flow,omitempty"`
}

// ParetoRequest asks for Figure 1's optimal worst-case tradeoff curve:
// Points locality targets evenly spaced over [HMin, HMax].
type ParetoRequest struct {
	K      int     `json:"k"`
	HMin   float64 `json:"hmin"`
	HMax   float64 `json:"hmax"`
	Points int     `json:"points"`
	Tol    float64 `json:"tol,omitempty"`
}

func (r ParetoRequest) Validate() error {
	if r.K < 2 {
		return fmt.Errorf("radix %d out of range (need k >= 2)", r.K)
	}
	if r.Points < 1 || r.Points > 1024 {
		return fmt.Errorf("points %d out of range (need 1..1024)", r.Points)
	}
	if r.HMin < 1 || r.HMax < r.HMin {
		return fmt.Errorf("locality range [%v, %v] invalid (need 1 <= hmin <= hmax)", r.HMin, r.HMax)
	}
	if r.Tol < 0 {
		return fmt.Errorf("negative tolerance")
	}
	return nil
}

// Fingerprint returns the request's content address.
func (r ParetoRequest) Fingerprint() (string, error) { return Fingerprint(KindPareto, r) }

// ParetoWire is the /v1/pareto request body, with DesignWire's budgets.
type ParetoWire struct {
	ParetoRequest
	MaxRounds int   `json:"max_rounds,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	Async     bool  `json:"async,omitempty"`
}

// ParetoPoint is one stored sample of a tradeoff curve.
type ParetoPoint struct {
	HNorm float64 `json:"h_norm"`
	Theta float64 `json:"theta"`
	Gamma float64 `json:"gamma"`
}

// ParetoArtifact is the stored tradeoff curve.
type ParetoArtifact struct {
	Schema  int           `json:"schema"`
	Request ParetoRequest `json:"request"`
	Points  []ParetoPoint `json:"points"`
}

// Encode is the canonical artifact serializer: compact JSON plus a trailing
// newline. Every producer (daemon, CLI -json) must encode through here so
// stored payloads, served responses, and CLI output are byte-identical.
func Encode(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("store: encode: %w", err)
	}
	return append(b, '\n'), nil
}
