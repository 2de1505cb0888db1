package topo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// TestGoldenFolding pins the observable behaviour of every family's
// channel indexing and of both automorphism groups — element actions in
// Elements() order, pair classes, the automorphism PairAut picks for every
// ordered pair, and channel-orbit representatives — as one SHA-256 per
// instance. The folded LPs are built from exactly these values (class order,
// per-pair automorphism, element order), so any change to them moves a
// design fingerprint. AutIDs are group-private encodings, so the digest
// records the actions of elements, never their IDs.
func TestGoldenFolding(t *testing.T) {
	for _, pin := range []struct{ spec, digest string }{
		{"torus2d:2", "ffa9f210682013acd39c22112200771e5baa9ebd7f985d7c24cff1e23bdf1318"},
		{"torus2d:3", "03ffa47310d9861cb761390f286c5c0f0541d409393b6271c6fc7c89a9e652fc"},
		{"torus2d:4", "27b4f52d2d48a589f599f5829c87650f0cf97c9d8e0824d7d91379f483e520ef"},
		{"torus2d:5", "aa50f4ce468c2a962585d8d9b4be0f4dec2353f287dbb1ffaf8f349a6dd7e3fd"},
		{"torus2d:6", "44d95660f021340148aa6486392b7c0c938a424d857872bedc9f233d29b82627"},
		{"torus2d:8", "f9fed7947298c7b004c927b755ac8fba16b535f8f31baac6adb74b12ae3d5d57"},
		{"torus3d:2", "9c4633d852545060d544f2eaa6640dd9e1f09d93f52834af58a4d2088af94415"},
		{"torus3d:3", "3a536d29d651bb3058eb82aa0a86b599ce7e50ea70ba7b182bc55499627c597d"},
		{"torus3d:4", "76aa1bf6ca3ec9e154c71e6a0a89dd387d76b221a1656c33628e42575564cab6"},
		{"mesh:2x3", "2af8f5090ce44d8302b34830c20867505ef0ed64919f9ac01ccc14d5db3c45f8"},
		{"mesh:3x5", "344396b5edee64ac157f7d039960b03b9cb7c6d285a0605ef15a485937dacce4"},
		{"mesh:4x4", "34d27dcdd25285f05815c5891af5c73923f92b554db18548b9348368663eac1d"},
	} {
		tp, err := Parse(pin.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", pin.spec, err)
		}
		if got := foldingDigest(tp); got != pin.digest {
			t.Errorf("%s: folding digest %s, want %s", pin.spec, got, pin.digest)
		}
	}
}

// foldingDigest hashes everything the folded LPs read from a topology.
func foldingDigest(tp Topology) string {
	h := sha256.New()
	put := func(v int) { putInt(h, int64(v)) }
	n, c := tp.Nodes(), tp.Chans()
	put(n)
	put(c)
	putInt(h, int64(math.Float64bits(tp.MeanMinDist())))
	for nd := 0; nd < n; nd++ {
		for p := 0; p < tp.OutDeg(Node(nd)); p++ {
			put(int(tp.PortChan(Node(nd), p)))
		}
	}
	for ch := 0; ch < c; ch++ {
		put(int(tp.ChanDst(Channel(ch))))
		put(int(tp.ReverseChan(Channel(ch))))
	}
	for _, g := range []AutGroup{tp.Group(), tp.TransGroup()} {
		put(g.Size())
		for _, a := range g.Elements() {
			for nd := 0; nd < n; nd++ {
				put(int(g.ApplyNode(a, Node(nd))))
			}
			for ch := 0; ch < c; ch++ {
				put(int(g.ApplyChan(a, Channel(ch))))
			}
		}
		classes := g.Classes()
		put(len(classes))
		for _, cl := range classes {
			put(int(cl.Src))
			put(int(cl.Dst))
			putInt(h, int64(math.Float64bits(cl.Weight)))
			put(cl.MinDist)
		}
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				ci, a := g.PairAut(Node(s), Node(d))
				put(ci)
				for ch := 0; ch < c; ch++ {
					put(int(g.ApplyChan(a, Channel(ch))))
				}
			}
		}
		reps := g.ChanOrbitReps()
		put(len(reps))
		for _, r := range reps {
			put(int(r))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}
