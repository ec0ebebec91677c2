package experiments

import (
	"fmt"
	"strings"

	"rtdls/internal/plot"
)

// CSV renders the panel as comma-separated values with one row per load
// and, per algorithm, mean / std / 95% CI half-width columns.
func (r *PanelResult) CSV() string {
	var b strings.Builder
	b.WriteString("load")
	for _, a := range r.Panel.Algs {
		fmt.Fprintf(&b, ",%s_mean,%s_std,%s_ci95", a.Name, a.Name, a.Name)
	}
	b.WriteString("\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%.2f", c.Load)
		for _, s := range c.RejectRatio {
			fmt.Fprintf(&b, ",%.6f,%.6f,%.6f", s.Mean, s.Std, s.CI95Half)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// GnuplotDat renders the panel in the whitespace-separated format of the
// paper's figures: load, then mean and CI per algorithm, with a commented
// header.
func (r *PanelResult) GnuplotDat() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", r.Panel.Figure, r.Panel.Title)
	fmt.Fprintf(&b, "# nodes=%d, Cms=%g, Cps=%g, average data size = %g, dcratio=%g%s\n",
		r.Panel.N, r.Panel.Cms, r.Panel.Cps, r.Panel.AvgSigma, r.Panel.DCRatio, r.Panel.heteroSuffix())
	fmt.Fprintf(&b, "# horizon=%g, runs=%d\n", r.Opts.Horizon, r.Opts.Runs)
	b.WriteString("# load")
	for _, a := range r.Panel.Algs {
		fmt.Fprintf(&b, "  %s  ci95", a.Name)
	}
	b.WriteString("\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%.2f", c.Load)
		for _, s := range c.RejectRatio {
			fmt.Fprintf(&b, "  %.6f  %.6f", s.Mean, s.CI95Half)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table renders an aligned text table of the panel, the form cmd/figures
// writes next to each data file.
func (r *PanelResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.Panel.Figure, r.Panel.Title)
	fmt.Fprintf(&b, "nodes=%d Cms=%g Cps=%g avgσ=%g dcratio=%g%s (horizon=%g, runs=%d)\n",
		r.Panel.N, r.Panel.Cms, r.Panel.Cps, r.Panel.AvgSigma, r.Panel.DCRatio,
		r.Panel.heteroSuffix(), r.Opts.Horizon, r.Opts.Runs)
	fmt.Fprintf(&b, "%-6s", "load")
	for _, a := range r.Panel.Algs {
		fmt.Fprintf(&b, " %22s", a.Name)
	}
	b.WriteString("\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-6.2f", c.Load)
		for _, s := range c.RejectRatio {
			fmt.Fprintf(&b, "    %8.4f ± %-8.4f", s.Mean, s.CI95Half)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// AuxCSV renders the auxiliary metrics the paper does not plot but which
// explain its curves: per-algorithm mean cluster utilization and mean task
// response time at every load.
func (r *PanelResult) AuxCSV() string {
	var b strings.Builder
	b.WriteString("load")
	for _, a := range r.Panel.Algs {
		fmt.Fprintf(&b, ",%s_util,%s_resp", a.Name, a.Name)
	}
	b.WriteString("\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%.2f", c.Load)
		for ai := range r.Panel.Algs {
			fmt.Fprintf(&b, ",%.6f,%.3f", c.Utilization[ai], c.MeanResponse[ai])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Chart renders the panel as an ASCII figure mirroring the paper's plots:
// Task Reject Ratio over System Load, one marker per algorithm.
func (r *PanelResult) Chart(width, height int) string {
	series := make([]plot.Series, len(r.Panel.Algs))
	for ai, a := range r.Panel.Algs {
		s := plot.Series{Name: a.Name}
		for _, c := range r.Cells {
			s.X = append(s.X, c.Load)
			s.Y = append(s.Y, c.RejectRatio[ai].Mean)
		}
		series[ai] = s
	}
	title := fmt.Sprintf("%s — %s\nnodes=%d, Cms=%g, Cps=%g, average data size = %g, dcratio=%g%s",
		r.Panel.Figure, r.Panel.Title, r.Panel.N, r.Panel.Cms, r.Panel.Cps,
		r.Panel.AvgSigma, r.Panel.DCRatio, r.Panel.heteroSuffix())
	return plot.Chart(title, "System Load", "Task Reject Ratio", series, width, height)
}
