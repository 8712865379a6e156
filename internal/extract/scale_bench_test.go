package extract

import (
	"fmt"
	"testing"

	"riot/internal/flatten"
)

// BenchmarkExtractScale times full extraction of N x N SRCELL arrays —
// the replicated-composition workload the paper's Nx/Ny primitive
// creates. The production extractor (spatial index for gate cutting,
// same-layer touching pairs and point location) is timed up to 64x64;
// the brute-force reference it replaced is timed only up to 16x16,
// beyond which the quadratic algorithms are too slow to benchmark
// honestly (the 16x16 brute case already runs ~300ms per op). Run it
// with -bench BenchmarkExtractScale to regenerate the trajectory.
func BenchmarkExtractScale(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		top := srArray(b, n, n)
		b.Run(fmt.Sprintf("%dx%d/indexed", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := FromCell(top); err != nil {
					b.Fatal(err)
				}
			}
		})
		if n > 16 {
			continue
		}
		b.Run(fmt.Sprintf("%dx%d/brute", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bruteFromCell(top); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveWideBus times the solver on layers of long material:
// a bus of mutually overlapping strips (every pair touches, so any
// pair finder reports all k(k-1)/2 pairs) and strapped die-spanning
// rails (every rail crosses every vertical line of the die).
func BenchmarkSolveWideBus(b *testing.B) {
	for _, bc := range []struct {
		name string
		fr   *flatten.Result
	}{
		{"strips/1000", wideBus(1000)},
		{"rails/5000", strappedRails(5000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Solve(bc.fr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
