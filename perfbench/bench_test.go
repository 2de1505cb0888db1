package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"tcr/internal/design"
	"tcr/internal/sim"
	"tcr/internal/topo"
)

// TestIterationsSemantics pins what design.Result.Iterations counts, which
// is why the benchmark reports it as design.final_pivots and never sums it
// as total pivots. Every uncertified exit of a cut loop reports the pivots
// of all rounds so far; the certified potential-LP exit reports only its
// last round's pivots, so it falls below the total the same run had
// already reached one round earlier. When the loops share one driver and
// the counts agree, this test fails and the metric changes meaning with it.
func TestIterationsSemantics(t *testing.T) {
	ctx := context.Background()
	tor := topo.NewTorus(4)
	full, err := design.WorstCaseAtLocalityCtx(ctx, tor, 1.25, design.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Certified || full.Rounds < 3 {
		t.Fatalf("k=4 design: certified=%v after %d rounds, want a certified multi-round run", full.Certified, full.Rounds)
	}
	cut, err := design.WorstCaseAtLocalityCtx(ctx, tor, 1.25, design.Options{MaxRounds: full.Rounds - 1})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Certified {
		t.Fatalf("run capped at %d rounds certified", full.Rounds-1)
	}
	if cut.Iterations < cut.Rounds {
		t.Fatalf("uncertified exit reports %d pivots over %d rounds, want the cumulative count", cut.Iterations, cut.Rounds)
	}
	if full.Iterations >= cut.Iterations {
		t.Fatalf("certified exit reports %d pivots, not below the %d accumulated by round %d: Iterations is no longer last-round-only",
			full.Iterations, cut.Iterations, cut.Rounds)
	}
}

func TestStackLayer(t *testing.T) {
	cases := []struct {
		want   string
		frames []string // leaf first
	}{
		{"lp.factorize", []string{"tcr/internal/lp.(*Solver).luSelectPivot", "tcr/internal/lp.(*Solver).factorizeSparse",
			"tcr/internal/lp.(*Solver).solveAttempt", "tcr/internal/design.(*potentialLP).solve", "main.(*figure1).unit", "main.main"}},
		{"lp.pricing", []string{"tcr/internal/lp.(*Solver).dotCol", "tcr/internal/lp.(*Solver).priceDevex", "tcr/internal/lp.(*Solver).primalInner"}},
		{"lp.pricing", []string{"tcr/internal/lp.(*Solver).dotCol", "tcr/internal/lp.(*Solver).dualInner", "tcr/internal/lp.(*Solver).dualSolve"}},
		{"lp.ftran", []string{"tcr/internal/lp.(*Solver).orderReach", "tcr/internal/lp.(*Solver).ftranVecSparse", "tcr/internal/lp.(*Solver).primalInner"}},
		{"lp.btran", []string{"tcr/internal/lp.(*etaFile).applyBtran", "tcr/internal/lp.(*Solver).btranEta", "tcr/internal/lp.(*Solver).computeY"}},
		{"lp.factorize", []string{"tcr/internal/lp.(*Solver).pivotEta", "tcr/internal/lp.(*Solver).pivot", "tcr/internal/lp.(*Solver).primalInner"}},
		{"lp.other", []string{"runtime.memmove", "tcr/internal/lp.(*Solver).solveAttempt", "tcr/internal/design.(*FlowLP).solveRound"}},
		{"matching", []string{"tcr/internal/matching.MinCostAssignment", "tcr/internal/par.Do.func1", "tcr/internal/eval.(*Flow).WorstCaseCtx"}},
		{"eval", []string{"runtime.mallocgc", "tcr/internal/eval.(*Flow).ChannelLoads", "main.(*evalSim).unit"}},
		{"runtime.gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"runtime.gc", []string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "tcr/internal/sim.(*Sim).step"}},
		{"runtime.syscall", []string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "syscall.Fsync", "os.(*File).Sync",
			"tcr/internal/store.WriteFileAtomic", "tcr/internal/online.(*Manager).save"}},
		{"stdlib.json", []string{"encoding/json.(*encodeState).marshal", "encoding/json.Marshal", "tcr/internal/store.Encode",
			"tcr/internal/serve.(*Server).handleEval", "net/http.HandlerFunc.ServeHTTP", "net/http.(*conn).serve"}},
		{"bench.driver", []string{"encoding/json.(*decodeState).object", "encoding/json.Unmarshal", "main.(*tcrd).checkResponse", "main.(*tcrd).unit.func3"}},
		{"bench.driver", []string{"runtime.memmove", "bufio.(*Reader).Read", "net/http.(*persistConn).readLoop"}},
		{"bench.other", []string{"runtime.futex", "runtime.schedule", "runtime.mcall"}},
		{"bench.other", nil},
	}
	for _, c := range cases {
		if got := stackLayer(c.frames); got != c.want {
			t.Errorf("stackLayer(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestProfileBucketsAccountForLP profiles a real k=5 sweep: the lp stage
// buckets must sum to lp.cpu_s, and the design work must land in lp.
func TestProfileBucketsAccountForLP(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	_, err := design.WorstCaseParetoCurveCtx(context.Background(), topo.NewTorus(5), []float64{1.0, 1.25, 1.5}, design.Options{})
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := profileBuckets(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(cpu))
	for name := range cpu {
		names = append(names, name)
	}
	sort.Strings(names)
	// Layered time excludes lp.cpu_s (the sum of its stages) and
	// bench.other (frames with no layer, such as race-detector runtime).
	var stages, layered float64
	for _, name := range names {
		switch {
		case name == "lp.cpu_s", name == "bench.other_cpu_s":
		case strings.HasPrefix(name, "lp."):
			stages += cpu[name]
			layered += cpu[name]
		default:
			layered += cpu[name]
		}
	}
	if math.Abs(stages-cpu["lp.cpu_s"]) > 1e-9 {
		t.Errorf("lp stages sum to %g s, lp.cpu_s is %g s", stages, cpu["lp.cpu_s"])
	}
	if cpu["lp.cpu_s"] < layered/2 {
		t.Errorf("lp.cpu_s %g s of %g s attributed to layers; a design sweep is mostly LP: %v", cpu["lp.cpu_s"], layered, cpu)
	}
	for name := range cpu {
		if !isLayerMetric(name) {
			t.Errorf("profile bucket %q is not in the per-layer catalog", name)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.99, 3.97}} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", v, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %g, want 0", got)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the benchmark's declared metrics
// and workloads in step with what the program reports.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []decl                  `json:"end_to_end"`
		PerLayer  []decl                  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	same := func(what string, declared []decl, have []metricDef) {
		if len(declared) != len(have) {
			t.Errorf("%s: %d declared, %d reported", what, len(declared), len(have))
			return
		}
		for i, d := range declared {
			if d.Name != have[i].name || d.Unit != have[i].unit {
				t.Errorf("%s %d: declared %s [%s], reported %s [%s]", what, i, d.Name, d.Unit, have[i].name, have[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
}

func TestChecksRejectWrongOutputs(t *testing.T) {
	good := make([]design.ParetoPoint, len(figure1Theta))
	for i, p := range figure1Theta {
		good[i] = design.ParetoPoint{HNorm: p.h, Theta: p.theta + 4e-7}
	}
	if err := checkFigure1(good); err != nil {
		t.Errorf("curve within tolerance rejected: %v", err)
	}
	bad := append([]design.ParetoPoint(nil), good...)
	bad[2].Theta += 2e-6
	if checkFigure1(bad) == nil {
		t.Error("curve off by 2e-6 accepted")
	}
	if checkFigure1(good[:3]) == nil {
		t.Error("short curve accepted")
	}
	sc := satCases[0]
	ok := sim.SaturationResult{Throughput: (sc.lo + sc.hi) / 2}
	if err := checkSaturation(sc, ok); err != nil {
		t.Errorf("in-band saturation rejected: %v", err)
	}
	for _, r := range []sim.SaturationResult{
		{Throughput: ok.Throughput, Deadlocked: true},
		{Throughput: ok.Throughput, Partial: true},
		{Throughput: sc.hi + 0.01},
	} {
		if checkSaturation(sc, r) == nil {
			t.Errorf("saturation %+v accepted", r)
		}
	}
	if err := checkEvalArtifact([]byte(`{"request":{"k":8,"alg":"DOR"},"h_norm":1,"wc_fraction":0.2857}`), false); err != nil {
		t.Errorf("matching eval rejected: %v", err)
	}
	if checkEvalArtifact([]byte(`{"request":{"k":8,"alg":"DOR"},"h_norm":1,"wc_fraction":0.3}`), false) == nil {
		t.Error("eval with a wrong worst case accepted")
	}
}

// TestScheduleShape checks the open-loop schedule: reproducible from the
// seed, an exact 80/10/10 mix spanning the run, alternating tenants, and
// the shift only after the midpoint.
func TestScheduleShape(t *testing.T) {
	w := &tcrd{opt: options{seed: 7}, warm: []*artifact{{path: "/v1/eval"}, {path: "/v1/design"}}}
	w.makeObserveBodies(7)
	length := 20 * time.Second
	a, err := w.schedule(length, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.schedule(length, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("schedule differs between two draws from one seed")
	}
	count := map[string]int{}
	var prev time.Duration
	shifted := 0
	for _, r := range a {
		count[r.class]++
		if r.due < prev || r.due >= length {
			t.Fatalf("due time %v out of order or past %v", r.due, length)
		}
		prev = r.due
		if bytes.Equal(r.body, w.shifted) {
			shifted++
			if r.tenant != tenantShift || r.due < length/2 {
				t.Fatalf("shifted batch for %q due at %v", r.tenant, r.due)
			}
		}
	}
	n := int(tcrdRate * length.Seconds())
	if count["warm"] != n*8/10 || count["cold"] != n/10 || count["observe"] != n/10 {
		t.Errorf("mix %v, want 80/10/10 of %d", count, n)
	}
	if shifted == 0 {
		t.Error("no shifted batch scheduled")
	}
	if prev < length*9/10 {
		t.Errorf("last arrival at %v of a %v schedule", prev, length)
	}
}
