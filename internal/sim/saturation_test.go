package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"tcr/internal/routing"
)

func TestFindSaturationCurve(t *testing.T) {
	res, err := FindSaturation(context.Background(),
		Config{K: 4, Seed: 9, Alg: routing.DOR{}, VCsPerClass: 2, BufDepth: 8, Warmup: 500, Measure: 2000},
		[]float64{0.2, 0.5, 0.8, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("deadlock during sweep")
	}
	if len(res.Curve) != 4 {
		t.Fatalf("curve has %d points", len(res.Curve))
	}
	// Accepted load can never exceed offered.
	for _, p := range res.Curve {
		if p.Accepted > p.Rate+0.02 {
			t.Fatalf("accepted %v exceeds offered %v", p.Accepted, p.Rate)
		}
	}
	// At easy loads acceptance tracks the offer.
	if res.Curve[0].Accepted < 0.15 {
		t.Fatalf("low-load acceptance %v too small", res.Curve[0].Accepted)
	}
	if res.Throughput <= 0 || res.AtRate == 0 {
		t.Fatalf("bad plateau: %+v", res)
	}
	// Latency grows with load.
	if res.Curve[0].AvgLatency > res.Curve[len(res.Curve)-1].AvgLatency {
		t.Fatal("latency should not decrease with load")
	}
	// DOR on a k=4 torus saturates well below an offered rate of 1.0, so
	// a sweep reaching 1.0 observes a genuine plateau.
	if res.Partial {
		t.Fatalf("full sweep flagged partial: %s", res.Reason)
	}
}

// TestFindSaturationNoPlateau: a sweep confined to easy loads never
// saturates, and the watchdog must flag the answer as a lower bound rather
// than report the largest swept rate as the saturation point.
func TestFindSaturationNoPlateau(t *testing.T) {
	res, err := FindSaturation(context.Background(),
		Config{K: 4, Seed: 9, Alg: routing.DOR{}, VCsPerClass: 2, BufDepth: 8, Warmup: 500, Measure: 2000},
		[]float64{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatalf("under-driven sweep not flagged partial: %+v", res)
	}
	if !strings.Contains(res.Reason, "plateau") {
		t.Fatalf("reason %q does not name the missing plateau", res.Reason)
	}
	if len(res.Curve) != 2 || res.Throughput <= 0 {
		t.Fatalf("partial result lost its curve: %+v", res)
	}
}

// TestFindSaturationBadPoint: an invalid configuration at one sweep point
// yields a partial result carrying the surviving points, not a failed sweep.
func TestFindSaturationBadPoint(t *testing.T) {
	res, err := FindSaturation(context.Background(),
		Config{K: 4, Seed: 9, Alg: routing.DOR{}, VCsPerClass: 2, BufDepth: 8, Warmup: 500, Measure: 2000},
		[]float64{0.2, 0.5, -1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || !strings.Contains(res.Reason, "failed") {
		t.Fatalf("failed point not reported: %+v", res)
	}
	if len(res.Curve) != 2 {
		t.Fatalf("curve has %d points, want the 2 survivors", len(res.Curve))
	}
}

// TestFindSaturationWorkerInvariant: the rate points share one read-only
// network and each seeds its own RNG, so the sweep result must not depend
// on how many goroutines run it.
func TestFindSaturationWorkerInvariant(t *testing.T) {
	cfg := Config{K: 4, Seed: 9, Alg: routing.IVAL{}, VCsPerClass: 2, Warmup: 300, Measure: 1000}
	rates := []float64{0.2, 0.4, 0.6, 0.8}
	var first SaturationResult
	for i, workers := range []int{1, 2, 4} {
		cfg.Workers = workers
		res, err := FindSaturation(context.Background(), cfg, rates)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
			continue
		}
		if !reflect.DeepEqual(res, first) {
			t.Fatalf("Workers=%d: %+v\nWorkers=1: %+v", workers, res, first)
		}
	}
}
