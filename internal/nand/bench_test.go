package nand

import "testing"

// Microbenchmarks for the reliability queries the SSD simulator makes
// on every page read.

func BenchmarkPageRBER(b *testing.B) {
	m := NewDefaultModel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PageRBER(i&1023, CSB, 1000, 14, int64(i&255), DefaultVref)
	}
}

func BenchmarkPageRBEROptimal(b *testing.B) {
	m := NewDefaultModel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PageRBER(i&1023, MSB, 2000, 21, 0, OptimalVref)
	}
}

func BenchmarkChunkRBER(b *testing.B) {
	m := NewDefaultModel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ChunkRBER(0.005, uint64(i), i&3, 4)
	}
}

func BenchmarkRetentionUntilRetry(b *testing.B) {
	m := NewDefaultModel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RetentionUntilRetry(i&255, CSB, 1000, 60)
	}
}

func BenchmarkSwiftRead(b *testing.B) {
	m := NewDefaultModel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SwiftRead(i&255, MSB, 1000, 20)
	}
}

func BenchmarkScramblePage(b *testing.B) {
	r := NewRandomizer(1)
	buf := make([]byte, 16*1024)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Scramble(buf, int64(i))
	}
}

// conditionsForBench derives conditions across blocks and read counts
// at the grid's middle P/E point, so the bounds and the exact RBER are
// timed over the same spread of tail arguments.
func conditionsForBench(m *Model) *[256]PageCondition {
	var c [256]PageCondition
	for i := range c {
		c[i] = m.conditionAt(i, 1000, float64(i&31), int64(i))
	}
	return &c
}

// BenchmarkConditionBounds times the certified RBER enclosure every
// page read is decided from.
func BenchmarkConditionBounds(b *testing.B) {
	m := NewDefaultModel(1)
	conds := conditionsForBench(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ConditionBounds(CSB, conds[i&255], DefaultVref)
	}
}

// BenchmarkConditionRBER times the exact RBER, the fallback of a read
// whose enclosure straddles a decision threshold.
func BenchmarkConditionRBER(b *testing.B) {
	m := NewDefaultModel(1)
	conds := conditionsForBench(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ConditionRBER(CSB, conds[i&255], DefaultVref)
	}
}
