package simjob

import (
	"context"
	"testing"
)

// benchGrid is a realistic Figure 1-shaped workload: six programs ×
// four partial features × three βm values on one geometry.
func benchGrid() Grid {
	return Grid{
		Refs:     20_000,
		Features: []string{"BL", "BNL1", "BNL2", "BNL3"},
		BetaM:    []int64{2, 8, 16},
	}
}

func BenchmarkStallSweepSerial(b *testing.B) {
	g := benchGrid()
	r := NewRunner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunGrid(context.Background(), g, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStallSweepParallel(b *testing.B) {
	g := benchGrid()
	r := NewRunner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunGrid(context.Background(), g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStallSweepOneGeometry is benchGrid on one program: a single
// (trace, geometry) whose twelve replays must still spread over every
// worker.
func BenchmarkStallSweepOneGeometry(b *testing.B) {
	g := benchGrid()
	g.Programs = []string{"nasa7"}
	r := NewRunner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunGrid(context.Background(), g, 0); err != nil {
			b.Fatal(err)
		}
	}
}
