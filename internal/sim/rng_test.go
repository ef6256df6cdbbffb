package sim

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, 1)
	b := NewRNG(42, 1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	a := NewRNG(42, 1)
	b := NewRNG(42, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different streams matched %d/100 draws", same)
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	r := NewRNG(1, 1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(<0) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(>1) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRNG(1, 2)
	const n = 100000
	const p = 0.3
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) frequency = %v", p, got)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(1, 3)
	const n = 200000
	const mean, sigma = 5.0, 2.0
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Normal(mean, sigma)
		sum += x
		sumsq += x * x
	}
	m := sum / n
	v := sumsq/n - m*m
	if math.Abs(m-mean) > 0.05 {
		t.Fatalf("sample mean = %v, want ~%v", m, mean)
	}
	if math.Abs(math.Sqrt(v)-sigma) > 0.05 {
		t.Fatalf("sample sigma = %v, want ~%v", math.Sqrt(v), sigma)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(1, 4)
	const n = 200000
	const mean = 40.0
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(mean)
	}
	if got := sum / n; math.Abs(got-mean) > 1.0 {
		t.Fatalf("exponential sample mean = %v, want ~%v", got, mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(1, 5)
	for i := 0; i < 10000; i++ {
		if r.LogNormal(0, 0.5) <= 0 {
			t.Fatal("LogNormal produced non-positive value")
		}
	}
}

func TestTimeFormatting(t *testing.T) {
	if got := (1500 * Nanosecond).Microseconds(); got != 1.5 {
		t.Fatalf("Microseconds = %v, want 1.5", got)
	}
	if got := (2500 * Microsecond).Milliseconds(); got != 2.5 {
		t.Fatalf("Milliseconds = %v, want 2.5", got)
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", got)
	}
	if s := (40 * Microsecond).String(); s != "40.000us" {
		t.Fatalf("String = %q", s)
	}
}
