package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helper must sort
	}
	return xs
}

func TestPercentileReturnsValueAndCount(t *testing.T) {
	v, n, err := Percentile(seq(100), 50)
	if err != nil || v != 50 || n != 100 {
		t.Fatalf("p50 of 1..100 = %v, n %d, err %v; want 50, 100, nil", v, n, err)
	}
	v, n, err = Percentile(seq(1000), 99)
	if err != nil || v != 990 || n != 1000 {
		t.Fatalf("p99 of 1..1000 = %v, n %d, err %v; want 990, 1000, nil", v, n, err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// 1..1009: p99 is rank 999, leaving exactly 10 samples beyond it.
	if _, _, err := Percentile(seq(1009), 99); err != nil {
		t.Fatalf("p99 with 10 samples beyond: %v", err)
	}
	// 1..1000: p99 is rank 990, leaving 10 beyond; 1..999 leaves 9.
	if _, n, err := Percentile(seq(999), 99); err == nil || n != 999 {
		t.Fatalf("p99 over 999 samples: err %v n %d, want a refusal with the count", err, n)
	}
	if _, _, err := Percentile(seq(19), 50); err == nil {
		t.Fatal("p50 over 19 samples leaves 9 beyond it and must be refused")
	}
	if _, _, err := Percentile(nil, 50); err == nil {
		t.Fatal("percentile of no samples must be refused")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median of 3,1,2 = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of 4,1,3,2 = %v", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{29, 29, 32.5, 33.5}); got != 31 {
		t.Fatalf("Mean = %v, want 31", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean of no samples is not NaN")
	}
}
