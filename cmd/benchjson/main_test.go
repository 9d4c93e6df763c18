package main

import (
	"reflect"
	"testing"
)

func TestPairedRatios(t *testing.T) {
	out := `goos: linux
BenchmarkA-2   1   100 ns/op   5 B/op   1 allocs/op
BenchmarkA-2   1   200 ns/op
BenchmarkA-2   1   400 ns/op
BenchmarkB-2   1   110 ns/op   7 B/op   1 allocs/op
BenchmarkB-2   1   180 ns/op
BenchmarkB-2   1   500 ns/op
PASS
`
	got, err := pairedRatios(out, "BenchmarkB", "BenchmarkA")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.9, 1.1, 1.25}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ratios = %v, want %v", got, want)
	}
	if _, err := pairedRatios(out+"BenchmarkA-2 1 300 ns/op\n", "BenchmarkB", "BenchmarkA"); err == nil {
		t.Fatal("unpaired samples accepted")
	}
}
