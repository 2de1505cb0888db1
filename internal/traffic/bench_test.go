package traffic

import "testing"

// sampleSink keeps the benchmarked samples from being optimized away.
var sampleSink []*Matrix

// BenchmarkSample measures one cold eval's sampling: eight Sinkhorn-
// normalized doubly-stochastic matrices on the 8-ary 2-cube's 64 nodes.
func BenchmarkSample(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sampleSink = Sample(64, 8, int64(i+1))
	}
}
