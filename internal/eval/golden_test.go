package eval

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"tcr/internal/routing"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// goldenSamples is the sample count and seed every golden case evaluates.
const (
	goldenSamples = 12
	goldenSeed    = 2003
)

// TestGoldenSamples pins the bits of traffic.Sample, the input of every
// average-case number, so a change there is told apart from one in the
// evaluator.
func TestGoldenSamples(t *testing.T) {
	for _, pin := range []struct {
		n      int
		digest string
	}{
		{64, "bd12c8974a3672b4d1f0b4b3346d98d947195f700bd0bdf0655241f09638f5a7"},
		{25, "7a27b1b1d2ea7f7162ff576579511f376f9b88ed483657d9f89cbf68bede8ff8"},
		{16, "bc2f4cf9d56d03c79a68f2029e78a464db48b8204daa8a4ec0982ffa63bcdfe3"},
		{15, "18c180fe04ca1d458e0da7476235b718808dddde0b0b870fa3bbe0e44ef9d215"},
	} {
		h := sha256.New()
		for _, m := range traffic.Sample(pin.n, goldenSamples, goldenSeed) {
			putMatrix(h, m)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != pin.digest {
			t.Errorf("Sample(%d, %d, %d): digest %s, want %s", pin.n, goldenSamples, goldenSeed, got, pin.digest)
		}
	}
}

// TestGoldenEval pins the exact bits of every load-derived metric: channel
// loads under uniform, tornado (tori only), one fixed permutation and each
// seeded sample; the average case's three fields; capacity; and the worst
// case's load and permutation. It covers the six Table 1 algorithms on an
// even and an odd 2D torus, plus synthetic sparse flows on the 3-cube and
// two meshes, where one row in three is empty. The evaluator promises results
// that do not depend on how the sums are organized, only on their terms and
// order, so these digests must survive any rewrite of its inner loops.
func TestGoldenEval(t *testing.T) {
	tableAlgs := []string{"DOR", "ROMM", "RLB", "RLBth", "VAL", "IVAL"}
	type pin struct{ name, digest string }
	pins := map[string][]pin{
		"torus2d:8": {
			{"DOR", "84133f6676d08e009fa2461c3d9eabe788e7a13c1c941ee79367ea1ac9c782db"},
			{"ROMM", "74e66a9595c4ac087f5df538a1ab4393997bbe53e089ca2b9a9e3879d73c02c1"},
			{"RLB", "60401e7cfbb91da323224e6c856d8217ed80ce54ef79d2fd59e39afc70f34fa2"},
			{"RLBth", "51abf4ba5bac19f3fab94491fa5f9f59c97e731aece5b323ffbb4936d2d26713"},
			{"VAL", "c12feb6c257ede5bbe30699d20e212bf5ab6c6074b1daef67e7aac66e558e4e9"},
			{"IVAL", "2964152552565b6517bd0e61e3a4144da332d0e8d3b3c59249c670cec37123ca"},
		},
		"torus2d:5": {
			{"DOR", "ef01746e2a5b1802687fc43c7f7bfab5697d19507bde9fa3e8fadb19a09b7267"},
			{"ROMM", "6517cc9ab4d7430cfc0abda6d42c34285b5a208bc99f069bcb597280e1462b37"},
			{"RLB", "69c755f1401db0382725d2d314dc3a19d4a3395f5a1c3f874be506d906153683"},
			{"RLBth", "51a2300e22d3621e214f95a0dba29e7f8a543ccff22f65d2116b11df55c51271"},
			{"VAL", "c68a4816921e74a62a52c2239abced5a614f907e419b7c970ad6fff548c4df2b"},
			{"IVAL", "69a3cd73c789f484c729dbf2a8df222c1ac3021af5d419f756130a50b9ebe6b7"},
		},
		"torus3d:4": {{"sparse", "07c715325150c6643daa238d58463e4073dafb9e7789fc09cd2ff8b28466166b"}},
		"mesh:4x4":  {{"sparse", "aba795d30b4802c340fa2960e9137a8cc7a8ec25cede0e0c2c9d874c56f9951e"}},
		"mesh:3x5":  {{"sparse", "03dfd1080384200d503f7f5ec6f8cb2f6f5ccc2c927802d0c93f2a3981dcff8e"}},
	}
	for _, spec := range []string{"torus2d:8", "torus2d:5", "torus3d:4", "mesh:4x4", "mesh:3x5"} {
		tp, err := topo.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pins[spec] {
			var f *Flow
			if p.name == "sparse" {
				f = sparseFlow(tp, goldenSeed)
			} else {
				if p.name != tableAlgs[i] {
					t.Fatalf("pin order: %s, want %s", p.name, tableAlgs[i])
				}
				alg, _ := routing.ByName(p.name)
				f = FromAlgorithm(tp, alg)
			}
			if got := evalDigest(t, f); got != p.digest {
				t.Errorf("%s %s: eval digest %s, want %s", spec, p.name, got, p.digest)
			}
		}
	}
}

// sparseFlow is a fixed synthetic flow table: about one row in three is
// empty, and every other row holds a few seeded values on seeded channels.
// It need not conserve flow; every metric pinned here is a pure function of
// the table.
func sparseFlow(tp topo.Topology, seed int64) *Flow {
	rng := rand.New(rand.NewSource(seed))
	f := NewFlow(tp)
	for _, row := range f.X {
		if rng.Intn(3) == 0 {
			continue
		}
		for j := 1 + rng.Intn(6); j > 0; j-- {
			row[rng.Intn(len(row))] += rng.Float64()
		}
	}
	return f
}

// evalDigest hashes the bits of every metric TestGoldenEval pins.
func evalDigest(t *testing.T, f *Flow) string {
	t.Helper()
	h := sha256.New()
	putLoads := func(lam *traffic.Matrix) {
		for _, l := range f.ChannelLoads(lam) {
			putFloat(h, l)
		}
	}
	n := f.T.Nodes()
	putLoads(traffic.Uniform(n))
	if tor, ok := f.T.(*topo.Torus); ok {
		putLoads(traffic.Tornado(tor))
	}
	putLoads(traffic.Permutation(rand.New(rand.NewSource(7)).Perm(n)))
	samples := traffic.Sample(n, goldenSamples, goldenSeed)
	for _, lam := range samples {
		putLoads(lam)
	}
	ac := f.AvgCase(samples)
	putFloat(h, ac.MeanMaxLoad)
	putFloat(h, ac.ApproxThroughput)
	putFloat(h, ac.ExactMeanThroughput)
	putFloat(h, f.Capacity())
	g, perm, err := f.WorstCaseCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	putFloat(h, g)
	for _, d := range perm {
		putUint(h, uint64(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putMatrix(h hash.Hash, m *traffic.Matrix) {
	for _, row := range m.L {
		for _, v := range row {
			putFloat(h, v)
		}
	}
}

func putFloat(h hash.Hash, v float64) { putUint(h, math.Float64bits(v)) }

func putUint(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}
