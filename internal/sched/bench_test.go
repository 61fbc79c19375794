package sched

import "testing"

// BenchmarkAdmitLOW measures LOW's K-bound admission test on a warmed
// Exp-1-sized graph (the retry loop of a contended run): each iteration
// offers the next of 64 fresh Exp-1 candidates, and an accepted one commits
// straight away so the graph stays at its warmed size.
func BenchmarkAdmitLOW(b *testing.B) {
	s := MustNew("LOW", DefaultParams())
	_, cands := warmExp1(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cands[i%len(cands)]
		if ok, _ := s.Admit(c); ok {
			s.Committed(c)
		}
	}
}
