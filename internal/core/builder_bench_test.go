package core

import (
	"strings"
	"testing"

	"netdiversity/internal/netgen"
	"netdiversity/internal/netmodel"
)

// legacyCacheKey is the string-concatenation key the FNV hash replaced; it
// is kept here so the benchmark documents the win (one allocation per edge
// versus none).
func legacyCacheKey(a, b []netmodel.ProductID) string {
	var sb strings.Builder
	for _, p := range a {
		sb.WriteString(string(p))
		sb.WriteByte(',')
	}
	sb.WriteByte('|')
	for _, p := range b {
		sb.WriteString(string(p))
		sb.WriteByte(',')
	}
	return sb.String()
}

func benchCandidates() ([]netmodel.ProductID, []netmodel.ProductID) {
	a := make([]netmodel.ProductID, 4)
	b := make([]netmodel.ProductID, 4)
	for i := range a {
		a[i] = netgen.ProductName(0, i)
		b[i] = netgen.ProductName(1, i)
	}
	return a, b
}

func BenchmarkCacheKeyFNV(bm *testing.B) {
	a, b := benchCandidates()
	bm.ReportAllocs()
	var sink uint64
	for i := 0; i < bm.N; i++ {
		sink += cacheKey(a, b)
	}
	_ = sink
}

func BenchmarkCacheKeyLegacyString(bm *testing.B) {
	a, b := benchCandidates()
	bm.ReportAllocs()
	var sink int
	for i := 0; i < bm.N; i++ {
		sink += len(legacyCacheKey(a, b))
	}
	_ = sink
}

// BenchmarkBuildProblem measures the full MRF build (the cache key is on its
// per-edge hot path).
func BenchmarkBuildProblem(bm *testing.B) {
	cfg := netgen.RandomConfig{Hosts: 500, Degree: 8, Services: 3, ProductsPerService: 4, Seed: 42}
	net, err := netgen.Random(cfg)
	if err != nil {
		bm.Fatal(err)
	}
	sim := netgen.SyntheticSimilarity(cfg, 0.6)
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		if _, err := buildProblem(net, sim, nil); err != nil {
			bm.Fatal(err)
		}
	}
}

// TestCacheKeySeparatesBoundaries guards the hash against list-boundary
// aliasing ("ab","c" vs "a","bc") and side swaps.
func TestCacheKeySeparatesBoundaries(t *testing.T) {
	k1 := cacheKey([]netmodel.ProductID{"ab", "c"}, []netmodel.ProductID{"d"})
	k2 := cacheKey([]netmodel.ProductID{"a", "bc"}, []netmodel.ProductID{"d"})
	if k1 == k2 {
		t.Fatal("cache key does not separate product boundaries")
	}
	k3 := cacheKey([]netmodel.ProductID{"a"}, []netmodel.ProductID{"b"})
	k4 := cacheKey([]netmodel.ProductID{"b"}, []netmodel.ProductID{"a"})
	if k3 == k4 {
		t.Fatal("cache key does not separate the two sides")
	}
	if cacheKey([]netmodel.ProductID{"a", "b"}, nil) == cacheKey([]netmodel.ProductID{"a"}, []netmodel.ProductID{"b"}) {
		t.Fatal("cache key does not separate the list split point")
	}
}
