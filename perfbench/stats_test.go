package main

import "testing"

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Fatalf("p25 = %v, want 2", got)
	}
	if xs[0] != 5 {
		t.Fatal("quantile reordered its input")
	}
}
