package main

// Reading runtime/pprof CPU profiles without the pprof tooling: a minimal
// decoder for the gzipped profile.proto the runtime writes, and the rules
// that assign each sampled stack to one layer.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"
)

// layerPackages are the tcr/internal packages reported as layers. Frames
// of other packages (internal/par's worker pool, for one) are transparent:
// their time goes to the nearest enclosing layer.
var layerPackages = map[string]bool{
	"lp": true, "design": true, "matching": true, "eval": true, "paths": true,
	"routing": true, "topo": true, "traffic": true, "sim": true, "serve": true,
	"store": true, "online": true,
}

// gcFuncPrefixes mark garbage-collector work, wherever it runs (background
// mark workers, assists inside allocations, sweeping, scavenging).
var gcFuncPrefixes = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.scanframeworker", "runtime.greyobject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge",
	"runtime.(*gcWork)", "runtime.(*mspan).sweep", "runtime.(*sweepLocked)",
	"runtime.wbBuf", "runtime.findObject", "runtime.(*gcBits)",
}

// lpStages is the pattern map splitting internal/lp time into solver
// stages. A sample goes to the innermost lp frame that matches any
// pattern, so a helper shared by several stages (dotCol, orderReach) is
// charged to the stage that called it; lp frames matching none are
// "other". factorize covers basis upkeep: LU refactorization and the eta
// updates of each pivot. pricing covers choosing the pivot: primal Devex
// pricing, and the dual simplex's row computation and ratio test
// (dualInner).
var lpStages = []struct {
	stage string
	re    *regexp.Regexp
}{
	{"factorize", regexp.MustCompile(`\.\(\*(luFactor|luWork)\)\.|\.\(\*etaFile\)\.(reset|appendBorder)|\.\(\*Solver\)\.(factorize|lu[A-Z]|ensureFactored|refresh|Refresh|pivot)`)},
	{"ftran", regexp.MustCompile(`\.(ftran|Ftran|applyFtran)`)},
	{"btran", regexp.MustCompile(`\.(btran|applyBtran|computeY)`)},
	{"pricing", regexp.MustCompile(`\.(price|scoreCand|scoreWorkers|updateDevex|initDevex|reducedCost|dualInner)`)},
}

// frameLayer names the layer a single frame belongs to, or "" for a
// transparent frame.
func frameLayer(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "tcr/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		if layerPackages[pkg] {
			return pkg
		}
		return ""
	}
	for _, p := range gcFuncPrefixes {
		if strings.HasPrefix(fn, p) {
			return "runtime.gc"
		}
	}
	switch {
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/runtime/syscall."),
		strings.HasPrefix(fn, "internal/syscall/"):
		return "runtime.syscall"
	case strings.HasPrefix(fn, "encoding/json."):
		return "stdlib.json"
	case strings.HasPrefix(fn, "net/http."):
		return "stdlib.http"
	case strings.HasPrefix(fn, "main."):
		return "bench.driver"
	}
	return ""
}

// stackLayer assigns one sampled stack, leaf first, to a layer. The
// benchmark's own goroutines (its request generator and the client side of
// its HTTP connections) are charged to bench.driver whole; any other stack
// goes to the innermost frame with a layer. Within lp the stage pattern
// map refines the bucket to lp.<stage>.
func stackLayer(frames []string) string {
	if len(frames) == 0 {
		return "bench.other"
	}
	if strings.HasPrefix(frames[len(frames)-1], "net/http.(*persistConn).") {
		return "bench.driver"
	}
	hasMain, hasProgram := false, false
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "main."):
			hasMain = true
		case strings.HasPrefix(f, "tcr/internal/"), strings.HasPrefix(f, "net/http.(*conn).serve"):
			hasProgram = true
		}
	}
	if hasMain && !hasProgram {
		return "bench.driver"
	}
	for i, f := range frames {
		layer := frameLayer(f)
		if layer == "" {
			continue
		}
		if layer == "lp" {
			return "lp." + lpStage(frames[i:])
		}
		return layer
	}
	return "bench.other"
}

// lpStage finds the innermost lp frame matching a stage pattern.
func lpStage(frames []string) string {
	for _, f := range frames {
		if !strings.HasPrefix(f, "tcr/internal/lp.") {
			continue
		}
		for _, s := range lpStages {
			if s.re.MatchString(f) {
				return s.stage
			}
		}
	}
	return "other"
}

// profileBuckets decodes a gzipped CPU profile and returns CPU seconds per
// layer, keyed by metric name: "design.cpu_s", "runtime.gc_cpu_s",
// "lp.factorize_cpu_s" and so on, with "lp.cpu_s" the sum of the lp stages.
func profileBuckets(data []byte) (map[string]float64, error) {
	stacks, err := decodeProfile(data)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range stacks {
		sec := float64(s.nanos) / 1e9
		layer := stackLayer(s.frames)
		out[cpuMetric(layer)] += sec
		if strings.HasPrefix(layer, "lp.") {
			out["lp.cpu_s"] += sec
		}
	}
	return out, nil
}

// cpuMetric names a layer's CPU metric: "design" -> "design.cpu_s",
// "runtime.gc" -> "runtime.gc_cpu_s".
func cpuMetric(layer string) string {
	if strings.Contains(layer, ".") {
		return layer + "_cpu_s"
	}
	return layer + ".cpu_s"
}

// sampledStack is one profile sample: its frames leaf first (inlined
// frames expanded) and its CPU time.
type sampledStack struct {
	frames []string
	nanos  int64
}

// decodeProfile parses the fields of profile.proto a CPU profile needs:
// sample_type (1), sample (2), location (4), function (5), string_table (6).
func decodeProfile(data []byte) ([]sampledStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		sampleTypes []int64 // string index of each value's type
		samples     []sample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]int64{}    // function id -> string index
		strs        []string
	)
	top := pbuf{b: raw}
	for !top.done() {
		num, wire, err := top.key()
		if err != nil {
			return nil, err
		}
		if wire != 2 {
			if err := top.skip(wire); err != nil {
				return nil, err
			}
			continue
		}
		msg, err := top.bytes()
		if err != nil {
			return nil, err
		}
		m := pbuf{b: msg}
		switch num {
		case 1:
			var typ int64
			err = m.fields(func(n, w int, p *pbuf) error {
				if n == 1 && w == 0 {
					v, err := p.varint()
					typ = int64(v)
					return err
				}
				return p.skip(w)
			})
			sampleTypes = append(sampleTypes, typ)
		case 2:
			var s sample
			err = m.fields(func(n, w int, p *pbuf) error {
				switch n {
				case 1:
					return p.uints(w, func(v uint64) { s.locs = append(s.locs, v) })
				case 2:
					return p.uints(w, func(v uint64) { s.vals = append(s.vals, int64(v)) })
				}
				return p.skip(w)
			})
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err = m.fields(func(n, w int, p *pbuf) error {
				switch {
				case n == 1 && w == 0:
					v, err := p.varint()
					id = v
					return err
				case n == 4 && w == 2:
					line, err := p.bytes()
					if err != nil {
						return err
					}
					lp := pbuf{b: line}
					return lp.fields(func(n, w int, q *pbuf) error {
						if n == 1 && w == 0 {
							v, err := q.varint()
							fns = append(fns, v)
							return err
						}
						return q.skip(w)
					})
				}
				return p.skip(w)
			})
			locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			err = m.fields(func(n, w int, p *pbuf) error {
				if w == 0 && (n == 1 || n == 2) {
					v, err := p.varint()
					if n == 1 {
						id = v
					} else {
						name = int64(v)
					}
					return err
				}
				return p.skip(w)
			})
			funcNames[id] = name
		case 6:
			strs = append(strs, string(msg))
		}
		if err != nil {
			return nil, err
		}
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	out := make([]sampledStack, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.vals) {
			return nil, fmt.Errorf("sample with %d values, want > %d", len(s.vals), cpuIdx)
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				frames = append(frames, str(funcNames[fn]))
			}
		}
		out = append(out, sampledStack{frames: frames, nanos: s.vals[cpuIdx]})
	}
	return out, nil
}

// pbuf is a cursor over protobuf wire-format bytes.
type pbuf struct {
	b []byte
	i int
}

var errTruncated = errors.New("truncated protobuf")

func (p *pbuf) done() bool { return p.i >= len(p.b) }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if p.i >= len(p.b) {
			return 0, errTruncated
		}
		c := p.b[p.i]
		p.i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflow")
}

func (p *pbuf) key() (num, wire int, err error) {
	k, err := p.varint()
	return int(k >> 3), int(k & 7), err
}

func (p *pbuf) bytes() ([]byte, error) {
	n, err := p.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p.b)-p.i) {
		return nil, errTruncated
	}
	b := p.b[p.i : p.i+int(n)]
	p.i += int(n)
	return b, nil
}

func (p *pbuf) skip(wire int) error {
	var err error
	switch wire {
	case 0:
		_, err = p.varint()
	case 1:
		p.i += 8
	case 2:
		_, err = p.bytes()
	case 5:
		p.i += 4
	default:
		return fmt.Errorf("unsupported wire type %d", wire)
	}
	if err == nil && p.i > len(p.b) {
		err = errTruncated
	}
	return err
}

// fields calls fn for each field of the message under the cursor.
func (p *pbuf) fields(fn func(num, wire int, p *pbuf) error) error {
	for !p.done() {
		num, wire, err := p.key()
		if err != nil {
			return err
		}
		if err := fn(num, wire, p); err != nil {
			return err
		}
	}
	return nil
}

// uints reads a repeated varint field in either packed (wire 2) or
// unpacked (wire 0) encoding.
func (p *pbuf) uints(wire int, emit func(uint64)) error {
	switch wire {
	case 0:
		v, err := p.varint()
		if err != nil {
			return err
		}
		emit(v)
		return nil
	case 2:
		b, err := p.bytes()
		if err != nil {
			return err
		}
		q := pbuf{b: b}
		for !q.done() {
			v, err := q.varint()
			if err != nil {
				return err
			}
			emit(v)
		}
		return nil
	}
	return p.skip(wire)
}
