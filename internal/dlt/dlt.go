// Package dlt implements single-round divisible load theory (DLT) for a
// star-topology cluster: one head node that sequentially transmits data
// chunks over identical links to homogeneous processing nodes.
//
// Following the linear cost model of Veeravalli, Ghose and Robertazzi
// ("Divisible load theory: a new paradigm", Cluster Computing 2003), the
// transmission time of a load σ is σ·Cms and its computation time is σ·Cps.
// Output transfer is not modelled (the paper's applications return
// negligibly small results).
//
// The package provides the closed forms used by Lin et al. (TR-UNL-CSE-
// 2007-0013): the optimal single-round partition for simultaneously
// available nodes, the execution-time function E(σ,n), the ñ_min node-count
// bound, the User-Split analysis, and an exact simulator for the sequential
// dispatch of an arbitrary partition to nodes with arbitrary available
// times. Heterogeneous-model machinery specific to the paper's contribution
// lives in package core.
package dlt

import (
	"fmt"
	"math"

	"rtdls/internal/errs"
)

// Params holds the linear cost coefficients of the cluster.
//
// Cms is the time to transmit one unit of workload from the head node to a
// processing node; Cps is the time to process one unit of workload on a
// single processing node. Both must be positive and finite.
type Params struct {
	Cms float64 // unit transmission cost
	Cps float64 // unit processing cost
}

// Validate reports whether the parameters describe a usable cluster.
func (p Params) Validate() error {
	if !(p.Cms > 0) || math.IsInf(p.Cms, 0) {
		return fmt.Errorf("dlt: Cms must be positive and finite, got %v: %w", p.Cms, errs.ErrBadConfig)
	}
	if !(p.Cps > 0) || math.IsInf(p.Cps, 0) {
		return fmt.Errorf("dlt: Cps must be positive and finite, got %v: %w", p.Cps, errs.ErrBadConfig)
	}
	return nil
}

// Beta returns β = Cps/(Cms+Cps), the geometric ratio between consecutive
// chunk sizes in the optimal single-round partition (Eq. 8 of the paper).
// 0 < β < 1 for valid parameters.
func (p Params) Beta() float64 {
	return p.Cps / (p.Cms + p.Cps)
}

// UnitCost returns Cms+Cps, the time to ship and process one unit of load
// on a single node.
func (p Params) UnitCost() float64 {
	return p.Cms + p.Cps
}

// ExecTime returns E(σ,n), the optimal single-round execution time of a
// divisible load σ on n homogeneous nodes that all become available at the
// same instant:
//
//	E(σ,n) = (1-β)/(1-βⁿ) · σ·(Cms+Cps) = σ·Cms / (1-βⁿ)
//
// This is the no-IIT execution time from the authors' RTAS'07 paper [22],
// reused here both as the baseline (OPR) cost and as the E term of the
// heterogeneous model construction (Eq. 1). ExecTime panics if n < 1 or
// σ < 0; σ = 0 yields 0.
func (p Params) ExecTime(sigma float64, n int) float64 {
	if n < 1 {
		panic(fmt.Sprintf("dlt: ExecTime needs n >= 1, got %d", n))
	}
	if sigma < 0 {
		panic(fmt.Sprintf("dlt: ExecTime needs sigma >= 0, got %v", sigma))
	}
	beta := p.Beta()
	return sigma * p.Cms / (1 - math.Pow(beta, float64(n)))
}

// Alphas returns the optimal single-round data distribution vector for n
// simultaneously available homogeneous nodes: αᵢ = βⁱ⁻¹·(1-β)/(1-βⁿ).
// The entries are positive, strictly decreasing and sum to 1 (up to
// floating-point rounding). Alphas panics if n < 1.
func (p Params) Alphas(n int) []float64 {
	if n < 1 {
		panic(fmt.Sprintf("dlt: Alphas needs n >= 1, got %d", n))
	}
	a := make([]float64, n)
	p.AlphasInto(a)
	return a
}

// AlphasInto is Alphas(len(a)) writing into a, which must not be empty.
func (p Params) AlphasInto(a []float64) {
	beta := p.Beta()
	a[0] = (1 - beta) / (1 - math.Pow(beta, float64(len(a))))
	for i := 1; i < len(a); i++ {
		a[i] = a[i-1] * beta
	}
}

// EqualAlphas returns the User-Split distribution vector: n equal chunks.
// It panics if n < 1.
func EqualAlphas(n int) []float64 {
	if n < 1 {
		panic(fmt.Sprintf("dlt: EqualAlphas needs n >= 1, got %d", n))
	}
	a := make([]float64, n)
	for i := range a {
		a[i] = 1 / float64(n)
	}
	return a
}
