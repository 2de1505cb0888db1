package sim

import (
	"context"
	"fmt"

	"tcr/internal/par"
)

// SaturationPoint estimates the saturation throughput of a configuration by
// sweeping offered load: it runs short simulations at increasing rates and
// reports the largest accepted throughput observed. The standard definition
// (accepted flux at which latency diverges) is awkward to automate; the
// accepted-throughput plateau under over-driving is equivalent for
// open-loop injection with unbounded source queues, which is what this
// simulator models.
type SaturationResult struct {
	// Throughput is the plateau accepted load in flits/node/cycle.
	Throughput float64
	// AtRate is the offered rate where the plateau was observed.
	AtRate float64
	// Deadlocked reports whether any sweep point tripped the watchdog.
	Deadlocked bool
	// Curve holds (rate, accepted) for every sweep point that completed.
	Curve []RatePoint
	// Partial reports that the sweep watchdog could not fully certify the
	// answer: some sweep points failed, or the accepted load was still
	// tracking the offered load at the highest surviving rate (no
	// saturation plateau observed, so Throughput is only a lower bound).
	// Reason explains which.
	Partial bool
	Reason  string
}

// saturationTrackFrac: a sweep point whose accepted load exceeds this
// fraction of its offered rate is still tracking the offer, i.e. the network
// is not yet saturated there.
const saturationTrackFrac = 0.98

// RatePoint is one sweep sample.
type RatePoint struct {
	Rate, Accepted, AvgLatency float64
}

// FindSaturation sweeps offered rates and returns the observed saturation
// plateau, using cfg.Warmup and cfg.Measure as the simulation windows. The
// cfg's Rate field is overridden per sweep point. The sweep points are
// independent simulations (each seeded from cfg.Seed) and run on
// cfg.Workers goroutines; the curve and plateau are assembled in rate
// order afterwards, so the result is identical for every worker count.
// The routing sampler, VC policy and destination CDFs are built once and
// shared read-only by every point. An invalid configuration is an error;
// an invalid rate fails only its own point.
func FindSaturation(ctx context.Context, cfg Config, rates []float64) (SaturationResult, error) {
	if len(rates) == 0 {
		rates = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	nw, err := newNetwork(cfg)
	if err != nil {
		return SaturationResult{}, err
	}
	stats := make([]Stats, len(rates))
	errs := make([]error, len(rates))
	err = par.Do(ctx, len(rates), cfg.Workers, func(i int) error {
		st, err := nw.simulate(ctx, rates[i])
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			// Watchdog: one failed point degrades the sweep to a partial
			// result instead of discarding every other point's work.
			errs[i] = err
			return nil
		}
		stats[i] = st
		return nil
	})
	if err != nil {
		return SaturationResult{}, err
	}
	res := SaturationResult{}
	nFailed, firstFail, lastOK, bestIdx := 0, -1, -1, -1
	for i, r := range rates {
		if errs[i] != nil {
			nFailed++
			if firstFail < 0 {
				firstFail = i
			}
			continue
		}
		st := stats[i]
		lastOK = i
		res.Curve = append(res.Curve, RatePoint{Rate: r, Accepted: st.Throughput, AvgLatency: st.AvgLatency})
		if st.Deadlocked {
			res.Deadlocked = true
		}
		if st.Throughput > res.Throughput {
			res.Throughput = st.Throughput
			res.AtRate = r
			bestIdx = i
		}
	}
	if lastOK < 0 {
		return SaturationResult{}, fmt.Errorf("sim: all %d sweep points failed (first: rate=%g: %w)",
			nFailed, rates[firstFail], errs[firstFail])
	}
	if nFailed > 0 {
		res.Partial = true
		res.Reason = fmt.Sprintf("%d of %d sweep points failed (first: rate=%g: %v)",
			nFailed, len(rates), rates[firstFail], errs[firstFail])
	}
	// Plateau watchdog: when the highest surviving rate both holds the
	// maximum accepted load and still tracks its offer, the sweep never
	// reached saturation — the plateau lies beyond the swept range.
	// (Deadlocked sweeps collapse rather than track and report their own
	// flag.)
	if !res.Deadlocked && bestIdx == lastOK && stats[lastOK].Throughput > saturationTrackFrac*rates[lastOK] {
		res.Partial = true
		if res.Reason != "" {
			res.Reason += "; "
		}
		res.Reason += fmt.Sprintf("no saturation plateau within swept rates (accepted %.3g still tracks offered %.3g); throughput is a lower bound",
			stats[lastOK].Throughput, rates[lastOK])
	}
	return res, nil
}
