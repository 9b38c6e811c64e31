package cache

import (
	"context"
	"testing"

	"tradeoff/internal/trace"
)

// FuzzCacheAccess drives the production cache and the oracle with a
// byte-string-encoded access sequence, demanding identical behaviour
// and structural invariants. Run longer with:
//
//	go test -fuzz=FuzzCacheAccess ./internal/cache
func FuzzCacheAccess(f *testing.F) {
	f.Add([]byte{0x00, 0x20, 0x40, 0x00, 0x81, 0xFF})
	f.Add([]byte("sequential-ish input exercising several sets"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Config{Size: 512, LineSize: 32, Assoc: 2}
		c := MustNew(cfg)
		o := newOracle(cfg.Size, cfg.LineSize, cfg.Assoc)
		for i := 0; i+1 < len(data); i += 2 {
			addr := uint64(data[i]) << 3 // spread across sets
			write := data[i+1]&1 == 1
			got := c.Access(addr, write)
			hit, wb := o.access(addr, write)
			if got.Hit != hit || got.Writeback != wb {
				t.Fatalf("step %d: cache (hit=%v wb=%v) != oracle (hit=%v wb=%v)",
					i/2, got.Hit, got.Writeback, hit, wb)
			}
			if got.Hit == got.Fill && !got.Bypassed {
				t.Fatalf("step %d: hit and fill both %v", i/2, got.Hit)
			}
		}
		if c.ValidLines() > cfg.Size/cfg.LineSize {
			t.Fatal("more valid lines than capacity")
		}
		s := c.Stats()
		if s.Hits()+s.Misses() != s.Accesses() {
			t.Fatal("hits + misses != accesses")
		}
	})
}

// FuzzSectorCache checks the sector cache's counting invariants under
// arbitrary access sequences.
func FuzzSectorCache(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 100, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := NewSector(512, 64, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(data); i += 2 {
			c.Access(uint64(data[i])<<2, data[i+1]&1 == 1)
		}
		s := c.Stats()
		if s.Hits+s.SubMisses+s.SectorMiss != s.Accesses {
			t.Fatalf("outcome counts %d+%d+%d != accesses %d",
				s.Hits, s.SubMisses, s.SectorMiss, s.Accesses)
		}
		if s.SubFills != s.SubMisses+s.SectorMiss {
			t.Fatalf("fills %d != sub misses %d + sector misses %d",
				s.SubFills, s.SubMisses, s.SectorMiss)
		}
	})
}

// FuzzHitRatiosMatchesSimulator holds the one-pass multi-size kernel
// to the simulator: for fuzzer-chosen references (any 64-bit address,
// 2⁶⁴−1 and line 0 included, loads and stores), line sizes of 1–256 B,
// associativities of 0–8 and an unsorted size list with duplicates and
// invalid entries, every valid size's hit ratio must equal
// Measure(MustNew(cfg), refs).HitRatio bit for bit and every invalid
// size must carry cfg.Validate's error. Run longer with:
//
//	go test -run '^$' -fuzz=FuzzHitRatiosMatchesSimulator ./internal/cache
func FuzzHitRatiosMatchesSimulator(f *testing.F) {
	f.Add(uint8(5), uint8(2), []byte{10, 12, 10, 0x83, 14, 9}, []byte("\x00\x00\x10\x04\x00\x30\x01\x00\x00\x05\x00\x00\x00\x00\x10\x02\x12\x34"))
	f.Add(uint8(0), uint8(4), []byte{2, 3, 4, 6, 0x90}, []byte("\x01\x00\x00\x05\x00\x00\x01\x00\x01\x00\x00\x00\x01\x00\x00\x03\xff\xff"))
	f.Add(uint8(0), uint8(1), []byte{0, 1, 2}, []byte("\x01\x00\x00\x00\x00\x00\x01\x00\x00\x01\x00\x01\x00\x00\x00"))
	f.Add(uint8(8), uint8(8), []byte{11, 9, 8, 10, 11}, []byte("\x02\x00\x01\x02\x00\x02\x06\x00\x01\x03\x12\x34\x07\x43\x21\x02\x00\x03\x02\x00\x01"))
	f.Add(uint8(4), uint8(0), []byte{6, 7, 5}, []byte("\x00\x00\x00\x00\x00\x10\x00\x00\x20\x00\x00\x00\x04\x00\x10\x00\x00\x30"))
	f.Fuzz(func(t *testing.T, lineShift, assocSel uint8, sizeCodes, refCodes []byte) {
		line := 1 << (lineShift % 9)
		assoc := int(assocSel % 9)
		var sizes []int
		for _, c := range sizeCodes[:min(len(sizeCodes), 8)] {
			if c&0x80 != 0 {
				sizes = append(sizes, int(c&0x7f)-8) // mostly not a power of two
			} else {
				sizes = append(sizes, 1<<(c%12))
			}
		}
		// Three bytes per reference: a kind byte picking the address's
		// region and the store flag, then a 16-bit value.
		var refs []trace.Ref
		for i := 0; i+2 < len(refCodes); i += 3 {
			v := uint64(refCodes[i+1])<<8 | uint64(refCodes[i+2])
			var addr uint64
			switch refCodes[i] & 3 {
			case 0:
				addr = v // line 0 and its neighbours
			case 1:
				addr = ^uint64(0) - v // 2⁶⁴−1 and its neighbours
			case 2:
				addr = v << 20 // one set, many tags
			case 3:
				addr = v * 0x9E3779B97F4A7C15
			}
			refs = append(refs, trace.Ref{Instr: uint64(i / 3), Addr: addr, Write: refCodes[i]&4 != 0})
		}

		got, err := HitRatios(context.Background(), refs, line, assoc, sizes)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(sizes) {
			t.Fatalf("%d results for %d sizes", len(got), len(sizes))
		}
		for i, size := range sizes {
			cfg := Config{Size: size, LineSize: line, Assoc: assoc}
			if want := cfg.Validate(); want != nil {
				if got[i].Err == nil || got[i].Err.Error() != want.Error() {
					t.Fatalf("%+v: error %v, want %v", cfg, got[i].Err, want)
				}
				continue
			}
			if got[i].Err != nil {
				t.Fatalf("%+v: unexpected error %v", cfg, got[i].Err)
			}
			if want := Measure(MustNew(cfg), refs).HitRatio; got[i].HitRatio != want {
				t.Fatalf("%+v over %d refs: hit ratio %v, simulator %v", cfg, len(refs), got[i].HitRatio, want)
			}
		}
	})
}
