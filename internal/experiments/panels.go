package experiments

import "fmt"

// Panel is one figure panel of the evaluation: a fixed cluster/workload
// configuration, the algorithms being compared, and the SystemLoad sweep.
type Panel struct {
	ID     string // stable identifier, e.g. "f04b"
	Figure string // the paper figure it reproduces, e.g. "Fig. 4b"
	Title  string

	N        int
	Cms      float64
	Cps      float64
	AvgSigma float64
	DCRatio  float64

	// CmsSpread and CpsSpread (>1) make the panel's cluster heterogeneous:
	// per-node costs are drawn log-uniformly around (Cms, Cps), with one
	// deterministic cluster per panel shared by every algorithm, load and
	// run, so comparisons stay paired. 0 leaves the cluster homogeneous.
	CmsSpread float64
	CpsSpread float64

	Algs  []Algorithm
	Loads []float64
}

// heteroSuffix formats the heterogeneity parameters for table headers, or
// returns "" for a homogeneous panel.
func (p Panel) heteroSuffix() string {
	if p.CmsSpread <= 1 && p.CpsSpread <= 1 {
		return ""
	}
	return fmt.Sprintf(", cms-spread=%g, cps-spread=%g", p.CmsSpread, p.CpsSpread)
}

// DefaultLoads returns the paper's SystemLoad sweep {0.1, 0.2, …, 1.0}.
func DefaultLoads() []float64 {
	loads := make([]float64, 10)
	for i := range loads {
		loads[i] = float64(i+1) / 10
	}
	return loads
}

// base returns the paper's baseline panel (Sec. 5.1): N=16, Cms=1, Cps=100,
// Avgσ=200, DCRatio=2.
func base(id, figure, title string, algs ...Algorithm) Panel {
	return Panel{
		ID: id, Figure: figure, Title: title,
		N: 16, Cms: 1, Cps: 100, AvgSigma: 200, DCRatio: 2,
		Algs: algs, Loads: DefaultLoads(),
	}
}

// AllPanels returns every evaluation panel: each figure of the paper plus
// the unshown cluster-size sweep (xN*) and the multi-round ablation (xMR)
// for the paper's future-work extension. This function is the index.
func AllPanels() []Panel {
	var ps []Panel
	add := func(p Panel) { ps = append(ps, p) }

	// Fig. 3a/3b: baseline IIT benefit (3b is the same data with 95% CIs,
	// which every output format includes).
	add(base("f03", "Fig. 3a/3b", "Benefits of Utilizing IITs — baseline", EDFDLT, EDFOPRMN))

	// Fig. 4: DCRatio effects, EDF.
	for i, dcr := range []float64{3, 10, 20, 100} {
		p := base(fmt.Sprintf("f04%c", 'a'+i), fmt.Sprintf("Fig. 4%c", 'a'+i),
			fmt.Sprintf("IIT benefits, DCRatio=%g", dcr), EDFDLT, EDFOPRMN)
		p.DCRatio = dcr
		add(p)
	}

	// Fig. 5: DLT vs User-Split, EDF.
	add(base("f05a", "Fig. 5a", "DLT vs User-Split — baseline", EDFDLT, EDFUserSplit))
	{
		p := base("f05b", "Fig. 5b", "DLT vs User-Split, DCRatio=10", EDFDLT, EDFUserSplit)
		p.DCRatio = 10
		add(p)
	}

	// Fig. 6: Avgσ effects, EDF.
	for i, s := range []float64{100, 200, 400, 800} {
		p := base(fmt.Sprintf("f06%c", 'a'+i), fmt.Sprintf("Fig. 6%c", 'a'+i),
			fmt.Sprintf("IIT benefits, Avgσ=%g", s), EDFDLT, EDFOPRMN)
		p.AvgSigma = s
		add(p)
	}

	// Fig. 7: Cms effects, EDF. (The paper's 7c is titled Cms=2 but plots
	// Cms=4 per the caption; we sweep {1,2,4,8}.)
	for i, cms := range []float64{1, 2, 4, 8} {
		p := base(fmt.Sprintf("f07%c", 'a'+i), fmt.Sprintf("Fig. 7%c", 'a'+i),
			fmt.Sprintf("IIT benefits, Cms=%g", cms), EDFDLT, EDFOPRMN)
		p.Cms = cms
		add(p)
	}

	// Fig. 8: Cps effects, EDF.
	for i, cps := range []float64{10, 50, 500, 1000, 5000, 10000} {
		p := base(fmt.Sprintf("f08%c", 'a'+i), fmt.Sprintf("Fig. 8%c", 'a'+i),
			fmt.Sprintf("IIT benefits, Cps=%g", cps), EDFDLT, EDFOPRMN)
		p.Cps = cps
		add(p)
	}

	// Fig. 9–12: the FIFO mirrors of Figs. 4, 6, 7, 8.
	for i, dcr := range []float64{3, 10, 20, 100} {
		p := base(fmt.Sprintf("f09%c", 'a'+i), fmt.Sprintf("Fig. 9%c", 'a'+i),
			fmt.Sprintf("IIT benefits (FIFO), DCRatio=%g", dcr), FIFODLT, FIFOOPRMN)
		p.DCRatio = dcr
		add(p)
	}
	for i, s := range []float64{100, 200, 400, 800} {
		p := base(fmt.Sprintf("f10%c", 'a'+i), fmt.Sprintf("Fig. 10%c", 'a'+i),
			fmt.Sprintf("IIT benefits (FIFO), Avgσ=%g", s), FIFODLT, FIFOOPRMN)
		p.AvgSigma = s
		add(p)
	}
	for i, cms := range []float64{1, 2, 4, 8} {
		p := base(fmt.Sprintf("f11%c", 'a'+i), fmt.Sprintf("Fig. 11%c", 'a'+i),
			fmt.Sprintf("IIT benefits (FIFO), Cms=%g", cms), FIFODLT, FIFOOPRMN)
		p.Cms = cms
		add(p)
	}
	for i, cps := range []float64{10, 50, 500, 1000, 5000, 10000} {
		p := base(fmt.Sprintf("f12%c", 'a'+i), fmt.Sprintf("Fig. 12%c", 'a'+i),
			fmt.Sprintf("IIT benefits (FIFO), Cps=%g", cps), FIFODLT, FIFOOPRMN)
		p.Cps = cps
		add(p)
	}

	// Fig. 13–14: DLT vs User-Split sweeps, EDF.
	for i, s := range []float64{100, 200, 400, 800} {
		p := base(fmt.Sprintf("f13%c", 'a'+i), fmt.Sprintf("Fig. 13%c", 'a'+i),
			fmt.Sprintf("DLT vs User-Split, Avgσ=%g", s), EDFDLT, EDFUserSplit)
		p.AvgSigma = s
		add(p)
	}
	for i, cps := range []float64{10, 50, 500, 1000, 5000, 10000} {
		p := base(fmt.Sprintf("f14%c", 'a'+i), fmt.Sprintf("Fig. 14%c", 'a'+i),
			fmt.Sprintf("DLT vs User-Split, Cps=%g", cps), EDFDLT, EDFUserSplit)
		p.Cps = cps
		add(p)
	}
	for i, dcr := range []float64{3, 10} {
		p := base(fmt.Sprintf("f14%c", 'g'+i), fmt.Sprintf("Fig. 14%c", 'g'+i),
			fmt.Sprintf("DLT vs User-Split, DCRatio=%g", dcr), EDFDLT, EDFUserSplit)
		p.DCRatio = dcr
		add(p)
	}

	// Fig. 15–16: DLT vs User-Split sweeps, FIFO.
	for i, s := range []float64{100, 200, 400, 800} {
		p := base(fmt.Sprintf("f15%c", 'a'+i), fmt.Sprintf("Fig. 15%c", 'a'+i),
			fmt.Sprintf("DLT vs User-Split (FIFO), Avgσ=%g", s), FIFODLT, FIFOUserSplit)
		p.AvgSigma = s
		add(p)
	}
	for i, cps := range []float64{10, 50, 500, 1000, 5000, 10000} {
		p := base(fmt.Sprintf("f16%c", 'a'+i), fmt.Sprintf("Fig. 16%c", 'a'+i),
			fmt.Sprintf("DLT vs User-Split (FIFO), Cps=%g", cps), FIFODLT, FIFOUserSplit)
		p.Cps = cps
		add(p)
	}
	for i, dcr := range []float64{3, 10} {
		p := base(fmt.Sprintf("f16%c", 'g'+i), fmt.Sprintf("Fig. 16%c", 'g'+i),
			fmt.Sprintf("DLT vs User-Split (FIFO), DCRatio=%g", dcr), FIFODLT, FIFOUserSplit)
		p.DCRatio = dcr
		add(p)
	}

	// Unshown in the paper ("we carried out the same type of simulations by
	// changing … cluster size N; results are similar"): N sweep.
	for i, n := range []int{8, 32, 64} {
		p := base(fmt.Sprintf("xN%c", 'a'+i), "Sec. 5.1 (unshown)",
			fmt.Sprintf("IIT benefits, N=%d", n), EDFDLT, EDFOPRMN)
		p.N = n
		add(p)
	}

	// Multi-round ablation for the paper's future-work extension (Sec. 6).
	add(base("xMR", "Sec. 6 (future work)", "Multi-round extension ablation",
		EDFDLT, EDFDLTMR(2), EDFDLTMR(4), EDFDLTMR(8)))

	// OPR-AN context panel: why "run on all N nodes" is excluded from the
	// paper's comparisons despite lacking IITs.
	add(base("xAN", "Sec. 5 (context)", "OPR-AN vs OPR-MN vs DLT",
		EDFDLT, EDFOPRMN, EDFOPRAN))

	// Heterogeneous-cluster panels (beyond the paper, after Gallet/Robert/
	// Vivien and Wu/Cao/Robertazzi): per-node cost spread around the
	// baseline coefficients. xHETa–c widen the compute spread; xHETd also
	// spreads the link costs; xHETe pits DLT against User-Split when node
	// speeds differ (equal chunks hurt most there).
	for i, sp := range []float64{2, 4, 8} {
		p := base(fmt.Sprintf("xHET%c", 'a'+i), "Extension (hetero)",
			fmt.Sprintf("Heterogeneous cluster, Cps spread ×%g", sp), EDFDLT, EDFOPRMN)
		p.CpsSpread = sp
		add(p)
	}
	{
		p := base("xHETd", "Extension (hetero)", "Heterogeneous cluster, Cms & Cps spread ×4",
			EDFDLT, EDFOPRMN)
		p.CmsSpread = 4
		p.CpsSpread = 4
		add(p)
	}
	{
		p := base("xHETe", "Extension (hetero)", "DLT vs User-Split, Cps spread ×4",
			EDFDLT, EDFUserSplit)
		p.CpsSpread = 4
		add(p)
	}

	return ps
}

// PanelByID returns the panel with the given ID from AllPanels.
func PanelByID(id string) (Panel, bool) {
	for _, p := range AllPanels() {
		if p.ID == id {
			return p, true
		}
	}
	return Panel{}, false
}
