// Buswidth: the paper's Example 1 as a design study — should a
// microprocessor spend pins (a wider external data bus) or die area (a
// bigger on-chip cache)?
//
// The example reproduces §5.2 with the Short & Levy hit ratios, then
// re-derives the same exchange from this repository's own cache
// simulator running the Zipf general-workload model, whose measured
// size/hit-ratio curve lands on the Short & Levy numbers. Run with:
//
//	go run ./examples/buswidth
package main

import (
	"fmt"
	"log"

	"tradeoff/internal/cache"
	"tradeoff/internal/core"
	"tradeoff/internal/trace"
)

func main() {
	const (
		alpha = 0.5
		l     = 32.0
		d     = 4.0 // the narrow (32-bit) bus
		betaM = 10.0
	)

	// Part 1: the paper's numbers. A 64-bit-bus processor with an 8K
	// cache (91% hits) should match a 32-bit-bus processor with a 32K
	// cache (95.5% hits).
	eq, err := core.ExampleOne(core.ShortLevyHR8K, core.ShortLevyHR32K, alpha, l, d, betaM)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Example 1 (Short & Levy hit ratios):")
	fmt.Printf("  8K cache on a 64-bit bus hits %.1f%%\n", 100*eq.SmallHR)
	fmt.Printf("  doubling the bus is worth %.2f%% hit ratio here (r' = %.3f)\n", 100*eq.DeltaHR, eq.RInv)
	fmt.Printf("  so a 32-bit bus needs a cache hitting %.2f%% — the 32K cache's %.1f%% covers it: %v\n\n",
		100*eq.NeededHR, 100*eq.LargeHR, eq.LargeHR >= eq.NeededHR-0.005)

	// Part 2: the same study on simulated hit ratios. Sweep cache
	// sizes, find the size equivalent to doubling the bus at 8K.
	refs := trace.Collect(trace.MustWorkload(trace.Zipf, 42), 600_000)
	warm, measured := refs[:300_000], refs[300_000:]
	fmt.Println("Same study on simulated hit ratios (Zipf general workload):")
	type pt struct {
		size int
		hr   float64
	}
	var pts []pt
	for _, size := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		c, err := cache.New(cache.Config{Size: size, LineSize: int(l), Assoc: 2})
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range warm {
			c.Access(r.Addr, r.Write)
		}
		c.ResetStats()
		p := cache.Measure(c, measured)
		pts = append(pts, pt{size, p.HitRatio})
		fmt.Printf("  %4dK cache: hit ratio %.4f\n", size>>10, p.HitRatio)
	}
	base := pts[0]
	eq2, err := core.ExampleOne(base.hr, base.hr, alpha, l, d, betaM)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n  at %dK (%.2f%%), doubling the bus is worth %.2f%% -> need %.2f%%\n",
		base.size>>10, 100*base.hr, 100*eq2.DeltaHR, 100*eq2.NeededHR)
	for _, p := range pts[1:] {
		if p.hr >= eq2.NeededHR {
			fmt.Printf("  => a %dK cache on the 32-bit bus matches an %dK cache on the 64-bit bus\n",
				p.size>>10, base.size>>10)
			fmt.Printf("     (spend ~%dx the cache area, or double the pins — same performance)\n",
				p.size/base.size)
			return
		}
	}
	fmt.Println("  => no swept size covers it; widen the sweep")
}
