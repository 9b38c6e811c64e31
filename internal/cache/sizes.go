package cache

import (
	"context"
	"slices"

	"tradeoff/internal/trace"
)

// SizeRatio is one cache size's answer from HitRatios: its hit ratio,
// or the error Config.Validate reports for its geometry.
type SizeRatio struct {
	HitRatio float64
	Err      error
}

// HitRatios simulates, in one pass over refs, a cache of every size in
// sizes with lineSize-byte lines and assoc ways (0: fully
// associative), each LRU, write-back and write-allocate without
// prefetch, and returns each size's result in sizes order, which may
// be unsorted and repeat sizes. A valid size's HitRatio equals
// Measure(MustNew(cfg), refs).HitRatio for its Config bit for bit; an
// invalid size carries cfg.Validate's error instead. It checks ctx
// every 2¹⁴ references and returns ctx.Err() once it is cancelled.
//
// One pass is exact because of inclusion (Mattson et al.'s stack
// property, extended to set refinement by Hill & Smith): with LRU
// replacement, sets chosen by a line index's low bits and the same
// ways, every set of a larger cache holds a subset of the lines of one
// set of a smaller cache, so the larger cache holds every line the
// smaller one holds, and the most recent line of a set is the most
// recent line of its set in every larger cache. A reference therefore
// walks the sizes from smallest to largest, updating each, and stops
// at the first whose set already holds it in front: it hits there and
// in every larger size, and changes none of them. Stores cannot change
// a hit under write-allocate, so the pass ignores the store flag.
func HitRatios(ctx context.Context, refs []trace.Ref, lineSize, assoc int, sizes []int) ([]SizeRatio, error) {
	out := make([]SizeRatio, len(sizes))
	valid := make([]int, 0, len(sizes))
	for i, size := range sizes {
		if out[i].Err = (Config{Size: size, LineSize: lineSize, Assoc: assoc}).Validate(); out[i].Err == nil {
			valid = append(valid, size)
		}
	}
	if len(valid) == 0 {
		return out, nil
	}
	slices.Sort(valid)
	valid = slices.Compact(valid)

	lines := 0
	for _, size := range valid {
		lines += size / lineSize
	}
	backing := make([]uint64, lines)
	passes := make([]sizePass, len(valid))
	for k, size := range valid {
		n := size / lineSize
		sets := Config{Size: size, LineSize: lineSize, Assoc: assoc}.Sets()
		passes[k] = sizePass{ways: backing[:n:n], mask: uint64(sets - 1), assoc: n / sets}
		backing = backing[n:]
	}
	if err := simulateSizes(ctx, refs, uint(log2(uint64(lineSize))), passes); err != nil {
		return nil, err
	}

	ratios := make([]float64, len(valid))
	var fronts uint64 // references that stopped at this size or a smaller one
	for k := range passes {
		fronts += passes[k].fronts
		if len(refs) > 0 {
			ratios[k] = float64(passes[k].hits+fronts) / float64(len(refs))
		}
	}
	for i, size := range sizes {
		if out[i].Err == nil {
			k, _ := slices.BinarySearch(valid, size)
			out[i].HitRatio = ratios[k]
		}
	}
	return out, nil
}

// sizePass is one cache size's state in a HitRatios pass: 8 bytes per
// line. Each set is assoc consecutive ways holding line indexes, most
// recent first, and its valid ways come first. An empty way holds 0,
// so line 0 is the one line an empty way can be mistaken for; it maps
// to set 0 in every size, so fill0 counts set 0's valid ways.
type sizePass struct {
	ways   []uint64
	mask   uint64 // sets − 1: a line's set is its index's low bits
	assoc  int
	fill0  int
	hits   uint64 // hits found past a set's front way
	fronts uint64 // references whose walk stopped at this size
}

// simulateSizes runs refs through passes, sorted by size ascending.
//
//perf:hot
func simulateSizes(ctx context.Context, refs []trace.Ref, lineShift uint, passes []sizePass) error {
	for i := range refs {
		// Honor cancellation on long traces without paying a channel
		// read per reference.
		if i&0x3fff == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		l := refs[i].Addr >> lineShift
		for k := range passes {
			z := &passes[k]
			s := l & z.mask
			base := int(s) * z.assoc
			ways := z.ways[base : base+z.assoc]
			if ways[0] == l && (l != 0 || z.fill0 > 0) {
				z.fronts++
				break
			}
			p := 1
			for p < len(ways) && ways[p] != l {
				p++
			}
			if p < len(ways) && (l != 0 || p < z.fill0) {
				z.hits++
			} else {
				// A miss fills the front and drops the last way: the
				// LRU line, or an empty way while the set has one.
				p = len(ways) - 1
				if s == 0 && z.fill0 < len(ways) {
					z.fill0++
				}
			}
			for ; p > 0; p-- {
				ways[p] = ways[p-1]
			}
			ways[0] = l
		}
	}
	return nil
}
