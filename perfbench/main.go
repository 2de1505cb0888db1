// Command perfbench is the repository's benchmark. It drives the public
// functions of the design, evaluation, simulation and serving layers on a
// named workload, checks every output against known values, and prints one
// JSON result line last.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it sets the workload up three times (set-up time is the
// median), then repeats units of timed work for about --seconds and reports
// the end-to-end metrics. With --trace 1 it runs one untraced unit and one
// traced unit on fresh instances and reports the per-layer metrics: CPU by
// layer from a runtime/pprof profile, spans around the benchmark's own calls
// into each layer, runtime.MemStats deltas and, on tcrd-mixed, /metrics
// deltas scraped from the in-process daemon. Nothing inside the program is
// instrumented. See NOTES.md for what each metric is expected to move.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times an untraced run sets its workload up; the
// reported set-up time is their median.
const setupReps = 3

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options is one invocation's parsed command line plus its environment.
type options struct {
	workload *workload
	seed     int64
	seconds  time.Duration
	trace    bool
	// workDir holds this run's scratch stores; removed on exit.
	workDir string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fset.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fset.Int("seconds", 20, "how long the timed phase runs")
	trace := fset.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fset.NArg() != 0 {
		logf(stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	base := os.Getenv("PERFBENCH_WORKDIR")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		logf(stderr, "perfbench: %v\n", err)
		return 1
	}
	workDir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		logf(stderr, "perfbench: %v\n", err)
		return 1
	}
	opt := options{workload: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, workDir: workDir}
	out := &errWriter{w: stdout}
	err = emit(ctx, opt, procs, out, stderr)
	if rerr := os.RemoveAll(workDir); err == nil {
		err = rerr
	}
	if err == nil {
		err = out.err
	}
	if err != nil {
		logf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// emit measures the workload and prints the fingerprint, the
// human-readable lines and, last, the JSON result.
func emit(ctx context.Context, opt options, procs int, out *errWriter, stderr io.Writer) error {
	fp, err := json.Marshal(fingerprint(opt, procs))
	if err != nil {
		return err
	}
	out.printf("fingerprint %s\n", fp)
	var res *result
	if opt.trace {
		res, err = measureTraced(ctx, opt, out)
	} else {
		res, err = measure(ctx, opt, out)
	}
	if err != nil {
		return err
	}
	for _, p := range res.problems {
		logf(stderr, "perfbench: check failed: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	out.printf("%s\n", line)
	return nil
}

// errWriter prints to w and keeps the first write error, so a lost
// result line fails the run.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

// logf writes a diagnostic to standard error.
func logf(w io.Writer, format string, args ...any) {
	//lint:ignore errdrop a diagnostic that cannot be written has nowhere else to go
	fmt.Fprintf(w, format, args...)
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	problems  []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// call is one timed operation of a unit: a public function call or an
// HTTP request. Its output check runs after the unit, outside both the
// timing and the CPU profile.
type call struct {
	class string
	d     time.Duration
	err   error
	check func(tr *tracer) error
	// untimed marks an outcome that counts as an operation but is not a
	// request latency (the online re-solve).
	untimed bool
}

// unitResult is what one unit of timed work produced.
type unitResult struct {
	calls []call
	// wall is the unit's job time: the summed call durations for the
	// closed-loop workloads, the schedule's makespan for tcrd-mixed.
	wall time.Duration
	// figures are workload-specific end-to-end figures, printed by name
	// on the human-readable lines.
	figures []figure
}

// figure is one named, unit-bearing value.
type figure struct {
	name, unit string
	value      float64
}

// instance is one set-up copy of a workload.
type instance interface {
	// unit runs one unit of timed work; tr is nil when untraced.
	unit(ctx context.Context, tr *tracer) (unitResult, error)
	// layerExtras takes the traced run's measurements that sit outside
	// the timed work (model build times, store timings).
	layerExtras(ctx context.Context, tr *tracer) error
	close() error
}

// workload is a named benchmark input.
type workload struct {
	name  string
	setup func(ctx context.Context, opt options) (instance, error)
	// openLoop workloads time each call from its due time and report
	// call latencies; closed-loop ones report unit latencies.
	openLoop bool
}

var workloads = []*workload{
	{name: "figure1-k6", setup: setupFigure1},
	{name: "figure4-k45", setup: setupFigure4},
	{name: "evalsim-k8", setup: setupEvalSim},
	{name: "tcrd-mixed", setup: setupTcrd, openLoop: true},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// tally accumulates call outcomes across units.
type tally struct {
	attempted, failed int
	lat               map[string][]float64 // per class, milliseconds
	all               []float64
	figures           map[string][]float64
	units             map[string]string
	problems          []string
}

func newTally() *tally {
	return &tally{lat: map[string][]float64{}, figures: map[string][]float64{}, units: map[string]string{}}
}

// settle runs the unit's deferred checks and records every call.
func (t *tally) settle(u unitResult, tr *tracer) {
	for _, f := range u.figures {
		t.figures[f.name] = append(t.figures[f.name], f.value)
		t.units[f.name] = f.unit
	}
	for _, c := range u.calls {
		err := c.err
		if err == nil && c.check != nil {
			err = c.check(tr)
		}
		t.attempted++
		if err != nil {
			t.failed++
			if len(t.problems) < 10 {
				t.problems = append(t.problems, fmt.Sprintf("%s: %v", c.class, err))
			}
			continue
		}
		if c.untimed {
			continue
		}
		ms := float64(c.d) / float64(time.Millisecond)
		t.lat[c.class] = append(t.lat[c.class], ms)
		t.all = append(t.all, ms)
	}
}

func (t *tally) result() *result {
	return &result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metric{},
		problems:  t.problems,
	}
}

// setupInstances sets the workload up n times, closing all but the last
// copy, and returns it with the set-up times in seconds.
func setupInstances(ctx context.Context, opt options, n int) (instance, []float64, error) {
	var inst instance
	var times []float64
	for i := 0; i < n; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		inst, err = opt.workload.setup(ctx, opt)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return inst, times, nil
}

// measure is the untraced run: set-up, then units until --seconds is
// spent or another unit would overrun it. The gated job cost is the
// process's CPU time per unit: on a shared machine the wall clock of the
// same unit swung by up to 2x with other tenants' load, CPU time by a few
// percent. Wall-clock job time and request latencies are printed and
// reported by the traced run. Peak RSS is the median over units of each
// unit's sampled peak, which is steadier than the process's high-water
// mark under garbage-collector timing.
func measure(ctx context.Context, opt options, out *errWriter) (*result, error) {
	inst, setups, err := setupInstances(ctx, opt, setupReps)
	if err != nil {
		return nil, err
	}
	tl := newTally()
	var walls, cpus, peaks []float64
	deadline := time.Now().Add(opt.seconds)
	for {
		stop := sampleRSS()
		cpu0 := cpuSeconds()
		var u unitResult
		u, err = inst.unit(ctx, nil)
		cpus = append(cpus, cpuSeconds()-cpu0)
		peaks = append(peaks, stop())
		if err != nil {
			break
		}
		tl.settle(u, nil)
		walls = append(walls, u.wall.Seconds())
		if time.Until(deadline) < u.wall {
			break
		}
	}
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res := tl.result()
	put := func(name string, v float64) { res.Metrics[name] = metric{v, unitOf(name)} }
	put("setup_s", median(setups))
	put("job_cpu_s", median(cpus))
	put("peak_rss_mb", median(peaks))
	p50, p99 := requestLatency(opt.workload, tl, walls)
	out.printf("units %d, calls %d, setups %s s, unit CPU %s s, unit peak RSS %s MB\n",
		len(walls), len(tl.all), fmtList(setups), fmtList(cpus), fmtList(peaks))
	out.printf("job_s %g s, p50_ms %g ms, p99_ms %g ms (wall clock, not gated)\n", median(walls), p50, p99)
	printFamily(out, opt.workload.name, tl, walls)
	return res, nil
}

// requestLatency is the median and 99th percentile latency of a request:
// an HTTP request on the open-loop workload, a whole unit on the
// closed-loop ones, whose user asks for the figure, not for its parts.
func requestLatency(w *workload, tl *tally, walls []float64) (p50, p99 float64) {
	requests := tl.all
	if !w.openLoop {
		requests = nil
		for _, s := range walls {
			requests = append(requests, s*1000)
		}
	}
	return quantile(requests, 0.5), quantile(requests, 0.99)
}

// oneUnit sets up a fresh instance, runs one unit on it (under the CPU
// profiler when prof is non-nil, with tr collecting spans and counts), takes
// the traced extras, and closes the instance.
func oneUnit(ctx context.Context, opt options, tr *tracer, prof io.Writer) (unitResult, runtime.MemStats, error) {
	var alloc runtime.MemStats
	inst, _, err := setupInstances(ctx, opt, 1)
	if err != nil {
		return unitResult{}, alloc, err
	}
	var ms0 runtime.MemStats
	if prof != nil {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		err = pprof.StartCPUProfile(prof)
	}
	var u unitResult
	if err == nil {
		u, err = inst.unit(ctx, tr)
	}
	if prof != nil {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&alloc)
		alloc.TotalAlloc -= ms0.TotalAlloc
		alloc.Mallocs -= ms0.Mallocs
	}
	if err == nil && tr != nil {
		err = inst.layerExtras(ctx, tr)
	}
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	return u, alloc, err
}

// measureTraced is the per-layer run: one untraced reference unit, then
// one traced unit on a fresh instance under the CPU profiler.
func measureTraced(ctx context.Context, opt options, out *errWriter) (*result, error) {
	uRef, _, err := oneUnit(ctx, opt, nil, nil)
	if err != nil {
		return nil, err
	}
	refTally := newTally()
	refTally.settle(uRef, nil)

	tr := newTracer()
	var prof bytes.Buffer
	u, alloc, err := oneUnit(ctx, opt, tr, &prof)
	if err != nil {
		return nil, err
	}
	tl := newTally()
	tl.settle(u, tr)
	cpu, err := profileBuckets(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}

	tl.attempted += refTally.attempted
	tl.failed += refTally.failed
	tl.problems = append(tl.problems, refTally.problems...)
	res := tl.result()
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{0, m.unit}
	}
	for name, v := range cpu {
		res.Metrics[name] = metric{v, "s"}
	}
	for name, v := range tr.snapshot() {
		res.Metrics[name] = metric{v, unitOf(name)}
	}
	set := func(name string, v float64) { res.Metrics[name] = metric{v, unitOf(name)} }
	set("runtime.alloc_mb", float64(alloc.TotalAlloc)/(1<<20))
	set("runtime.mallocs", float64(alloc.Mallocs))
	if tl.attempted > 0 {
		set("bench.fail_frac", float64(tl.failed)/float64(tl.attempted))
	}
	// Overhead compares like with like: the job time on the closed-loop
	// workloads, the median request latency on the open-loop one, whose
	// makespan is fixed by its schedule.
	traced, untraced := u.wall.Seconds(), uRef.wall.Seconds()
	if opt.workload.openLoop {
		traced, untraced = quantile(tl.all, 0.5), quantile(refTally.all, 0.5)
	}
	if untraced > 0 {
		set("bench.trace_overhead_frac", traced/untraced-1)
	}
	p50, p99 := requestLatency(opt.workload, tl, []float64{u.wall.Seconds()})
	set("bench.job_s", u.wall.Seconds())
	set("bench.p50_ms", p50)
	set("bench.p99_ms", p99)
	for name := range res.Metrics {
		if !isLayerMetric(name) {
			return nil, fmt.Errorf("internal: per-layer metric %q missing from the catalog", name)
		}
	}
	printFamily(out, opt.workload.name, tl, []float64{u.wall.Seconds()})
	return res, nil
}

// printFamily prints, by name and unit, the workload-specific end-to-end
// figures that ride along on the human-readable lines (the JSON line
// carries the metrics common to every workload).
func printFamily(w *errWriter, name string, tl *tally, walls []float64) {
	w.printf("fail_frac %g (failed %d of %d)\n", frac(tl.failed, tl.attempted), tl.failed, tl.attempted)
	classes := make([]string, 0, len(tl.lat))
	for c := range tl.lat {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		v := tl.lat[c]
		w.printf("%s: n=%d p50 %.3f ms p90 %.3f ms p99 %.3f ms\n", c, len(v),
			quantile(v, 0.5), quantile(v, 0.9), quantile(v, 0.99))
	}
	names := make([]string, 0, len(tl.figures))
	for n := range tl.figures {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w.printf("%s %g %s (median of %d units)\n", n, median(tl.figures[n]), tl.units[n], len(tl.figures[n]))
	}
	w.printf("%s job_s per unit: %s\n", name, fmtList(walls))
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

// median of v; 0 when empty.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (the "inclusive" method); 0 when v is empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// sampleRSS samples the process's resident set every 5 ms until the
// returned func is called, which returns the largest sample in MB.
func sampleRSS() func() float64 {
	stop := make(chan struct{})
	peak := make(chan float64, 1)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		max := rssMB()
		for {
			select {
			case <-stop:
				peak <- math.Max(max, rssMB())
				return
			case <-tick.C:
				max = math.Max(max, rssMB())
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-peak
	}
}

// rssMB reads the resident set size; where /proc is missing it falls back
// to the memory the Go runtime holds from the OS.
func rssMB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 2 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// runFingerprint identifies what a result was measured on.
type runFingerprint struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	StoreFS    string `json:"store_fs"`
}

func fingerprint(opt options, procs int) runFingerprint {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return runFingerprint{
		Workload:   opt.workload.name,
		Seed:       opt.seed,
		Seconds:    int(opt.seconds / time.Second),
		Trace:      opt.trace,
		GOMAXPROCS: procs,
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		SourceHash: sourceHash("."),
		StoreFS:    fsType(opt.workDir),
	}
}

// sourceHash digests every Go source and go.mod under root, so runs of a
// checkout without git history still name the code they measured. Dot
// directories (.git, the .bench_build output) are skipped.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
