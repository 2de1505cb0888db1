package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"tcr/internal/client"
	"tcr/internal/store"
)

// tcr remote drives a running tcrd daemon through internal/client instead
// of computing locally: same artifact schema on stdout as the -json modes,
// but the solve (and the store) live in the daemon. The client's retry,
// hedging, and budget-propagation policy apply; when the daemon answers
// with a stale-but-certified fallback (overload, tripped breaker, solver
// failure) the artifact is still emitted and the degradation is reported
// on stderr so pipelines can decide whether stale is acceptable.

func cmdRemote(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("remote", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7421", "tcrd base URL")
	attempts := fs.Int("attempts", 4, "attempts per request (retries on 429/5xx and transport errors)")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "base retry backoff, doubled per retry and jittered; Retry-After floors it")
	hedge := fs.Duration("hedge", 0, "hedge delay: duplicate an unanswered request after this long (0 disables)")
	attemptTimeout := fs.Duration("attempt-timeout", 0, "per-attempt timeout (0 = none)")
	timeout := fs.Duration("timeout", 0, "overall budget, propagated to the daemon as the solve deadline (0 = none)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: tcr remote [flags] <eval|worstperm|design|pareto> [verb flags]
run "tcr remote -addr URL <verb> -h" for verb flags`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(exitUsage)
	}
	c, err := client.New(client.Config{
		BaseURL:        *addr,
		MaxAttempts:    *attempts,
		BaseBackoff:    *backoff,
		HedgeDelay:     *hedge,
		AttemptTimeout: *attemptTimeout,
	})
	if err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	verb, vargs := fs.Arg(0), fs.Args()[1:]
	var path string
	var encode func(timeoutMS int64) ([]byte, error)
	switch verb {
	case "eval":
		path, encode, err = remoteEval(vargs)
	case "worstperm":
		path, encode, err = remoteWorstPerm(vargs)
	case "design":
		path, encode, err = remoteDesign(vargs)
	case "pareto":
		path, encode, err = remotePareto(vargs)
	default:
		fs.Usage()
		os.Exit(exitUsage)
	}
	if err != nil {
		return err
	}

	payload, meta, err := c.Raw(ctx, path, encode)
	if err != nil {
		return fmt.Errorf("remote %s (after %d attempt(s)): %w", verb, meta.Attempts, err)
	}
	if meta.IsDegraded() {
		fmt.Fprintf(os.Stderr,
			"tcr remote: DEGRADED (%s): daemon served stale artifact %.16s, %ds old: %s\n",
			meta.Degraded, meta.FallbackFingerprint, meta.StalenessSec, meta.Fallback)
	}
	if meta.Attempts > 1 || meta.Hedged {
		fmt.Fprintf(os.Stderr, "tcr remote: succeeded after %d attempt(s) (hedged: %v)\n",
			meta.Attempts, meta.Hedged)
	}
	return emit(payload)
}

// Each verb builder parses its flags into the daemon's wire request. The
// timeout_ms budget is filled in per attempt by the client so retries
// carry the shrunken remainder, which is why these return encoders rather
// than byte slices.

func remoteEval(args []string) (string, func(int64) ([]byte, error), error) {
	fs := flag.NewFlagSet("remote eval", flag.ExitOnError)
	k := fs.Int("k", 8, "torus radix")
	alg := fs.String("alg", "DOR", "algorithm name")
	samples := fs.Int("samples", 0, "average-case sample count (0 to skip)")
	seed := fs.Int64("seed", 0, "sample seed (requires -samples)")
	if err := fs.Parse(args); err != nil {
		return "", nil, err
	}
	req := store.EvalRequest{K: *k, Alg: *alg, Samples: *samples, Seed: *seed}
	return "/v1/eval", func(tms int64) ([]byte, error) {
		return json.Marshal(store.EvalWire{EvalRequest: req, TimeoutMS: tms})
	}, nil
}

func remoteWorstPerm(args []string) (string, func(int64) ([]byte, error), error) {
	fs := flag.NewFlagSet("remote worstperm", flag.ExitOnError)
	k := fs.Int("k", 8, "torus radix")
	alg := fs.String("alg", "DOR", "algorithm name")
	if err := fs.Parse(args); err != nil {
		return "", nil, err
	}
	req := store.WorstPermRequest{K: *k, Alg: *alg}
	return "/v1/worstperm", func(tms int64) ([]byte, error) {
		return json.Marshal(store.WorstPermWire{WorstPermRequest: req, TimeoutMS: tms})
	}, nil
}

func remoteDesign(args []string) (string, func(int64) ([]byte, error), error) {
	fs := flag.NewFlagSet("remote design", flag.ExitOnError)
	k := fs.Int("k", 8, "torus radix")
	topoSpec := fs.String("topo", "", `explicit topology "family:spec"; overrides -k`)
	kind := fs.String("kind", store.DesignMinLocality, "wcopt|minloc")
	hnorm := fs.Float64("hnorm", 0, "locality budget for wcopt (0 = unconstrained)")
	rounds := fs.Int("rounds", 0, "cutting-plane round budget (0 = daemon default)")
	if err := fs.Parse(args); err != nil {
		return "", nil, err
	}
	req := store.DesignRequest{Kind: *kind, HNorm: *hnorm}
	if *topoSpec != "" {
		req.Topology = *topoSpec
	} else {
		req.K = *k
	}
	maxRounds := *rounds
	return "/v1/design", func(tms int64) ([]byte, error) {
		return json.Marshal(store.DesignWire{DesignRequest: req, MaxRounds: maxRounds, TimeoutMS: tms})
	}, nil
}

func remotePareto(args []string) (string, func(int64) ([]byte, error), error) {
	fs := flag.NewFlagSet("remote pareto", flag.ExitOnError)
	k := fs.Int("k", 6, "torus radix")
	hmin := fs.Float64("hmin", 1.0, "lowest locality target")
	hmax := fs.Float64("hmax", 2.0, "highest locality target")
	points := fs.Int("points", 11, "sweep points")
	rounds := fs.Int("rounds", 0, "per-point round budget (0 = daemon default)")
	if err := fs.Parse(args); err != nil {
		return "", nil, err
	}
	req := store.ParetoRequest{K: *k, HMin: *hmin, HMax: *hmax, Points: *points}
	maxRounds := *rounds
	return "/v1/pareto", func(tms int64) ([]byte, error) {
		return json.Marshal(store.ParetoWire{ParetoRequest: req, MaxRounds: maxRounds, TimeoutMS: tms})
	}, nil
}
