package serve

import (
	"context"
	"testing"

	"tcr/internal/eval"
	"tcr/internal/store"
)

// BenchmarkColdEval measures one set of cold eval requests as the daemon
// serves them once its flow cache is warm: the six Table 1 algorithms at
// k=8, each with a fresh 8-sample seed, on one worker. Each iteration draws
// the samples and evaluates capacity and the average case; the flow tables
// and worst cases come from the cache.
func BenchmarkColdEval(b *testing.B) {
	ctx := context.Background()
	algs := []string{"DOR", "ROMM", "RLB", "RLBth", "VAL", "IVAL"}
	cache := eval.NewCache()
	for _, alg := range algs {
		if _, err := ComputeEval(ctx, store.EvalRequest{K: 8, Alg: alg}, cache, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, alg := range algs {
			req := store.EvalRequest{K: 8, Alg: alg, Samples: 8, Seed: int64(i + 1)}
			if _, err := ComputeEval(ctx, req, cache, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}
