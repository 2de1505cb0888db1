// Command tcr regenerates the paper's evaluation (Towles, Dally, Boyd,
// "Throughput-Centric Routing Algorithm Design", SPAA'03) as TSV tables.
//
// Subcommands:
//
//	eval     metrics for every closed-form algorithm (points of Figures 1 & 6)
//	figure1  worst-case throughput vs locality Pareto curve (Figure 1)
//	figure4  locality vs radix for optimal / IVAL / 2TURN (Figure 4)
//	figure5  interpolated algorithms DOR<->IVAL and DOR<->2TURN (Figure 5)
//	figure6  average-case throughput vs locality (Figure 6, incl. 2TURNA)
//	approx   average-case approximation quality (Section 3.3)
//	sim      flit-level simulation (Section 2.1's ideal-vs-practical gap)
//
// All throughputs print as fractions of network capacity; locality prints
// normalized to the mean minimal path length, matching the paper's axes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"tcr"
	"tcr/internal/design"
	"tcr/internal/lp"
	"tcr/internal/serve"
	"tcr/internal/sim"
	"tcr/internal/store"
	"tcr/internal/traffic"
)

// Exit codes, so scripts driving tcr can tell failure classes apart.
const (
	exitErr         = 1 // generic failure
	exitUsage       = 2 // bad command line
	exitNumerical   = 3 // LP numerical failure that survived the recovery ladder
	exitUncertified = 4 // budgets ran out before the oracle certified optimality
	exitCanceled    = 5 // interrupted, or the deadline expired
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(exitUsage)
	}
	// Ctrl-C cancels the context, which unwinds LP sweeps and simulations
	// between rounds; a second Ctrl-C kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "eval":
		err = cmdEval(ctx, args)
	case "figure1":
		err = cmdFigure1(ctx, args)
	case "figure4":
		err = cmdFigure4(ctx, args)
	case "figure5":
		err = cmdFigure5(ctx, args)
	case "figure6":
		err = cmdFigure6(ctx, args)
	case "approx":
		err = cmdApprox(ctx, args)
	case "sim":
		err = cmdSim(ctx, args)
	case "worstperm":
		err = cmdWorstPerm(ctx, args)
	case "design":
		err = cmdDesign(ctx, args)
	case "loadmap":
		err = cmdLoadMap(args)
	case "remote":
		err = cmdRemote(ctx, args)
	case "observe":
		err = cmdObserve(ctx, args)
	default:
		usage()
		os.Exit(exitUsage)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcr:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode classifies a failure for the shell; a numerical failure also
// prints the solver's recovery-ladder post-mortem, which is otherwise lost
// with the solve.
func exitCode(err error) int {
	var de *lp.DiagError
	if errors.As(err, &de) {
		fmt.Fprintln(os.Stderr, "tcr: solver diagnostics:", de.Diag.Summary())
	}
	switch {
	case errors.Is(err, lp.ErrNumerical):
		return exitNumerical
	case errors.Is(err, design.ErrUncertified):
		return exitUncertified
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return exitCanceled
	}
	return exitErr
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: tcr <eval|figure1|figure4|figure5|figure6|approx|sim|worstperm|design|loadmap|remote|observe> [flags]
run "tcr <subcommand> -h" for flags`)
}

// newTorus validates a flag-supplied radix before constructing the
// topology, so bad CLI input surfaces as an error instead of a panic.
func newTorus(k int) (*tcr.Torus, error) {
	if k < 2 {
		return nil, fmt.Errorf("radix %d out of range (need k >= 2)", k)
	}
	return tcr.NewTorus(k), nil
}

// closedForms returns the paper's Table 1 algorithms plus IVAL.
func closedForms() []tcr.Algorithm {
	return []tcr.Algorithm{
		tcr.DOR(), tcr.ROMM(), tcr.RLB(), tcr.RLBth(), tcr.VAL(), tcr.IVAL(),
	}
}

func cmdEval(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	k := fs.Int("k", 8, "torus radix")
	nSamples := fs.Int("samples", 100, "average-case sample count (0 to skip)")
	seed := fs.Int64("seed", 1, "sample seed")
	asJSON := fs.Bool("json", false, "emit one artifact JSON line per algorithm (the tcrd schema) instead of the TSV table")
	storeDir := fs.String("store", "", "artifact store directory: replay stored results, persist fresh ones")
	if err := fs.Parse(args); err != nil {
		return err
	}

	t, err := newTorus(*k)
	if err != nil {
		return err
	}
	if *asJSON {
		return evalJSON(ctx, *k, *nSamples, *seed, *storeDir)
	}
	var samples []*tcr.Traffic
	if *nSamples > 0 {
		samples = tcr.SampleTraffic(t, *nSamples, *seed)
	}
	fmt.Printf("# %d-ary 2-cube, capacity %.4f injection fraction\n", *k, tcr.NetworkCapacity(t))
	fmt.Println("alg\tHnorm\twc_frac\tavg_frac\tcap_frac")
	for _, alg := range closedForms() {
		m, err := tcr.ReportCtx(ctx, t, alg, samples)
		if err != nil {
			return err
		}
		fmt.Printf("%s\t%.4f\t%.4f\t%.4f\t%.4f\n",
			alg.Name(), m.HNorm, m.WorstCaseFraction, m.AvgCaseFraction, m.CapacityFraction)
	}
	return nil
}

// evalJSON emits NDJSON: one canonical EvalArtifact per closed-form
// algorithm, byte-identical to what POST /v1/eval serves for the same
// request, optionally replayed from / persisted to an artifact store.
func evalJSON(ctx context.Context, k, nSamples int, seed int64, storeDir string) error {
	st, err := openStore(storeDir)
	if err != nil {
		return err
	}
	for _, alg := range closedForms() {
		req := store.EvalRequest{K: k, Alg: alg.Name(), Samples: nSamples}
		if nSamples > 0 {
			req.Seed = seed
		}
		fp, err := req.Fingerprint()
		if err != nil {
			return err
		}
		b, err := artifactBytes(st, store.KindEval, fp, func() (any, bool, error) {
			art, err := serve.ComputeEval(ctx, req, nil, tcr.Concurrency)
			return art, err == nil, err
		})
		if err != nil {
			return err
		}
		if err := emit(b); err != nil {
			return err
		}
	}
	return nil
}

func cmdFigure1(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("figure1", flag.ExitOnError)
	k := fs.Int("k", 6, "torus radix (k=8 reproduces the paper; its sweep takes over 30 minutes)")
	points := fs.Int("points", 11, "Pareto sweep points")
	if err := fs.Parse(args); err != nil {
		return err
	}

	t, err := newTorus(*k)
	if err != nil {
		return err
	}
	fmt.Println("# optimal tradeoff curve: best worst-case throughput at locality <= L")
	fmt.Println("Lnorm\twc_frac_optimal")
	hs := sweep(1.0, 2.0, *points)
	pts, err := tcr.WorstCaseParetoCurveCtx(ctx, t, hs, tcr.DesignOptions{})
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("%.4f\t%.4f\n", p.HNorm, p.Theta)
	}
	tt, err := tcr.Design2TurnCtx(ctx, t, tcr.DesignOptions{})
	if err != nil {
		return err
	}
	fmt.Println("\n# algorithm points (Hnorm, wc_frac)")
	fmt.Println("alg\tHnorm\twc_frac")
	for _, alg := range append(closedForms(), tt.Table) {
		m, err := tcr.ReportCtx(ctx, t, alg, nil)
		if err != nil {
			return err
		}
		fmt.Printf("%s\t%.4f\t%.4f\n", alg.Name(), m.HNorm, m.WorstCaseFraction)
	}
	return nil
}

func cmdFigure4(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("figure4", flag.ExitOnError)
	kmin := fs.Int("kmin", 3, "smallest radix")
	kmax := fs.Int("kmax", 5, "largest radix")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Println("# locality (normalized) at maximum worst-case throughput")
	fmt.Println("k\toptimal\tIVAL\t2TURN")
	for k := *kmin; k <= *kmax; k++ {
		t, err := newTorus(k)
		if err != nil {
			return err
		}
		opt, err := tcr.OptimalLocalityAtMaxWorstCaseCtx(ctx, t, tcr.DesignOptions{})
		if err != nil {
			return fmt.Errorf("k=%d optimal: %w", k, err)
		}
		ival, err := tcr.ReportCtx(ctx, t, tcr.IVAL(), nil)
		if err != nil {
			return err
		}
		tt, err := tcr.Design2TurnCtx(ctx, t, tcr.DesignOptions{})
		if err != nil {
			return fmt.Errorf("k=%d 2TURN: %w", k, err)
		}
		fmt.Printf("%d\t%.4f\t%.4f\t%.4f\n", k, opt.HNorm, ival.HNorm, tt.HNorm)
	}
	return nil
}

func cmdFigure5(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("figure5", flag.ExitOnError)
	k := fs.Int("k", 8, "torus radix")
	points := fs.Int("points", 11, "alpha sweep points")
	if err := fs.Parse(args); err != nil {
		return err
	}

	t, err := newTorus(*k)
	if err != nil {
		return err
	}
	tt, err := tcr.Design2TurnCtx(ctx, t, tcr.DesignOptions{})
	if err != nil {
		return err
	}
	fmt.Println("# interpolated algorithms: alpha from DOR (0) to the non-minimal algorithm (1)")
	fmt.Println("alpha\tH_DOR-IVAL\twc_DOR-IVAL\tH_DOR-2TURN\twc_DOR-2TURN")
	for i := 0; i < *points; i++ {
		alpha := float64(i) / float64(*points-1)
		a, err := tcr.ReportCtx(ctx, t, tcr.Interpolate(tcr.IVAL(), tcr.DOR(), alpha), nil)
		if err != nil {
			return err
		}
		b, err := tcr.ReportCtx(ctx, t, tcr.Interpolate(tt.Table, tcr.DOR(), alpha), nil)
		if err != nil {
			return err
		}
		fmt.Printf("%.2f\t%.4f\t%.4f\t%.4f\t%.4f\n",
			alpha, a.HNorm, a.WorstCaseFraction, b.HNorm, b.WorstCaseFraction)
	}
	return nil
}

func cmdFigure6(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("figure6", flag.ExitOnError)
	k := fs.Int("k", 5, "torus radix (k=8 with 100 samples needs hours of LP time)")
	nSamples := fs.Int("samples", 40, "average-case sample count")
	seed := fs.Int64("seed", 1, "sample seed")
	points := fs.Int("points", 9, "Pareto sweep points")
	if err := fs.Parse(args); err != nil {
		return err
	}

	t, err := newTorus(*k)
	if err != nil {
		return err
	}
	samples := tcr.SampleTraffic(t, *nSamples, *seed)

	fmt.Println("# optimal tradeoff: best avg-case throughput (approx) at locality <= L")
	fmt.Println("Lnorm\tavg_frac_optimal")
	pts, err := tcr.AvgCaseParetoCurveCtx(ctx, t, samples, sweep(1.0, 2.0, *points), tcr.DesignOptions{})
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("%.4f\t%.4f\n", p.HNorm, p.Theta)
	}
	tt, err := tcr.Design2TurnCtx(ctx, t, tcr.DesignOptions{})
	if err != nil {
		return err
	}
	tta, err := tcr.Design2TurnACtx(ctx, t, samples, tcr.DesignOptions{})
	if err != nil {
		return err
	}

	fmt.Println("\n# algorithm points (Hnorm, avg_frac)")
	fmt.Println("alg\tHnorm\tavg_frac")
	for _, alg := range append(closedForms(), tt.Table, tta.Table) {
		m, err := tcr.ReportCtx(ctx, t, alg, samples)
		if err != nil {
			return err
		}
		fmt.Printf("%s\t%.4f\t%.4f\n", alg.Name(), m.HNorm, m.AvgCaseFraction)
	}
	return nil
}

func cmdApprox(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("approx", flag.ExitOnError)
	k := fs.Int("k", 8, "torus radix")
	nSamples := fs.Int("samples", 100, "sample count")
	seed := fs.Int64("seed", 1, "sample seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	t, err := newTorus(*k)
	if err != nil {
		return err
	}
	samples := tcr.SampleTraffic(t, *nSamples, *seed)
	fmt.Printf("# Section 3.3 approximation check, |X|=%d, N=%d\n", *nSamples, t.N)
	fmt.Println("alg\tapprox_thpt\texact_mean_thpt\trel_err_pct")
	for _, alg := range closedForms() {
		f, err := tcr.EvaluateCtx(ctx, t, alg)
		if err != nil {
			return err
		}
		r := f.AvgCase(samples)
		rel := 100 * (r.ExactMeanThroughput - r.ApproxThroughput) / r.ExactMeanThroughput
		fmt.Printf("%s\t%.4f\t%.4f\t%.2f\n",
			alg.Name(), r.ApproxThroughput, r.ExactMeanThroughput, rel)
	}
	return nil
}

func cmdSim(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	k := fs.Int("k", 8, "torus radix")
	algName := fs.String("alg", "IVAL", "DOR|VAL|IVAL|ROMM|RLB|RLBth|O1TURN")
	pattern := fs.String("pattern", "uniform", "uniform|tornado|transpose|complement|neighbor|bitrev|shuffle")
	rate := fs.Float64("rate", 0.0, "offered load in flits/node/cycle; 0 = sweep")
	warmup := fs.Int("warmup", 3000, "warmup cycles")
	measure := fs.Int("measure", 10000, "measurement cycles")
	vcs := fs.Int("vcs", 2, "virtual channels per deadlock class")
	buf := fs.Int("buf", 8, "flit buffer depth per VC")
	seed := fs.Int64("seed", 1, "rng seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	t, err := newTorus(*k)
	if err != nil {
		return err
	}
	alg, ok := algByName(*algName)
	if !ok {
		return fmt.Errorf("unknown algorithm %q", *algName)
	}
	pat, ok := traffic.Named(t, *pattern)
	if !ok {
		return fmt.Errorf("pattern %q unavailable on k=%d", *pattern, *k)
	}

	// Ideal saturation for context: min(1, capacity under this pattern).
	f, err := tcr.EvaluateCtx(ctx, t, alg)
	if err != nil {
		return err
	}
	ideal := f.Throughput(pat)
	if ideal > 1 {
		ideal = 1
	}
	fmt.Printf("# %s on %d-ary 2-cube, %s traffic; ideal saturation %.4f flits/node/cycle\n",
		*algName, *k, *pattern, ideal)
	fmt.Println("rate\tthroughput\tavg_latency\tfrac_of_ideal\tdeadlock")

	rates := []float64{*rate}
	if *rate <= 0 {
		rates = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	for _, r := range rates {
		st, err := tcr.SimulateCtx(ctx, sim.Config{
			K: *k, Rate: r, Seed: *seed, Alg: alg, Pattern: pat,
			VCsPerClass: *vcs, BufDepth: *buf,
			Warmup: *warmup, Measure: *measure,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%.2f\t%.4f\t%.1f\t%.3f\t%v\n",
			r, st.Throughput, st.AvgLatency, st.Throughput/ideal, st.Deadlocked)
	}
	return nil
}

// sweep returns n evenly spaced values in [lo, hi].
func sweep(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{hi}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}
