package dlt

import "math"

// ceilGuard absorbs floating-point noise before a Ceil so that values that
// are mathematically integral do not round up to the next integer.
const ceilGuard = 1e-12

// MinNodesBound returns ñ_min = ⌈ln γ / ln β⌉ (Sec. 4.1.1 B of the paper),
// the upper bound on the minimum number of nodes required for a task with
// data size σ to finish within the given slack when its n nodes' latest
// available time is r_n, where
//
//	slack = A + D − r_n,   β = Cps/(Cms+Cps),   γ = 1 − σ·Cms/slack.
//
// Allocating at least ñ_min nodes whose latest available time is r_n
// guarantees r_n + E(σ,ñ_min) ≤ A+D, and hence (by Eq. 9, Ê ≤ E) also
// r_n + Ê ≤ A+D for the heterogeneous-model partition.
//
// ok is false when the task must be rejected: slack ≤ 0 (the deadline
// precedes the start) or γ ≤ 0 (not enough time even for the sequential
// transmission of the input data, σ·Cms ≥ slack).
func MinNodesBound(p Params, sigma, slack float64) (n int, ok bool) {
	return MinNodesBoundLn(p, math.Log(p.Beta()), sigma, slack)
}

// MinNodesBoundLn is MinNodesBound, bit for bit, given lnBeta = ln β of p.
func MinNodesBoundLn(p Params, lnBeta, sigma, slack float64) (n int, ok bool) {
	if slack <= 0 || math.IsNaN(slack) {
		return 0, false
	}
	if sigma <= 0 {
		return 1, true
	}
	gamma := 1 - sigma*p.Cms/slack
	if gamma <= 0 {
		return 0, false
	}
	// 0 < β < 1 and 0 < γ; γ ≥ 1 means even one node has slack to spare.
	if gamma >= 1 {
		return 1, true
	}
	x := math.Log(gamma) / lnBeta
	n = int(math.Ceil(x - ceilGuard))
	if n < 1 {
		n = 1
	}
	return n, true
}
