package trace

import (
	"fmt"
	"io"

	"ksa/internal/report"
)

// BlameRows converts cause totals into the report layer's top-blamed rows.
func BlameRows(totals []CauseTotal) []report.BlameRow {
	rows := make([]report.BlameRow, 0, len(totals))
	for _, ct := range totals {
		rows = append(rows, report.BlameRow{
			Structure: ct.Cause,
			Dominated: ct.Dominated,
			TotalUs:   ct.Total.Micros(),
			WorstUs:   ct.Worst.Micros(),
		})
	}
	return rows
}

// LockTableOf renders lock aggregates (one tracer's, or several kernels'
// pooled via MergeLockStats) as an aligned table.
func LockTableOf(title string, stats []*LockStat) *report.Table {
	t := &report.Table{
		Title: title,
		Headers: []string{"lock", "acquires", "contended", "maxq",
			"wait p50", "wait p99", "wait max", "hold p50", "hold p99", "hold max"},
	}
	for _, ls := range stats {
		if ls.Acquires == 0 {
			continue
		}
		holdP50, holdP99, holdMax := "-", "-", "-"
		if ls.Holds > 0 {
			holdP50 = fmtHistUs(ls.Hold.Quantile(0.5))
			holdP99 = fmtHistUs(ls.Hold.Quantile(0.99))
			holdMax = ls.MaxHold.String()
		}
		t.AddRow(ls.Name,
			fmt.Sprintf("%d", ls.Acquires),
			fmt.Sprintf("%d", ls.Contended),
			fmt.Sprintf("%d", ls.MaxWaiters),
			fmtHistUs(ls.Wait.Quantile(0.5)),
			fmtHistUs(ls.Wait.Quantile(0.99)),
			ls.MaxWait.String(),
			holdP50, holdP99, holdMax)
	}
	return t
}

func fmtHistUs(us float64) string {
	switch {
	case us >= 1000:
		return fmt.Sprintf("%.2fms", us/1000)
	default:
		return fmt.Sprintf("%.1fµs", us)
	}
}

// WriteBlameCSV emits one CSV row per (record, part): the full
// decomposition of every retained outlier, machine-readable.
func WriteBlameCSV(w io.Writer, kernelName string, recs []BlameRecord) error {
	headers := []string{"kernel", "label", "core", "end_us", "wall_us", "dominant", "cause", "cause_us", "share"}
	rows := make([][]string, 0, len(recs)*4)
	for i := range recs {
		r := &recs[i]
		for _, p := range r.Parts {
			share := 0.0
			if r.Wall > 0 {
				share = float64(p.Time) / float64(r.Wall)
			}
			rows = append(rows, []string{
				kernelName,
				r.Label,
				fmt.Sprintf("%d", r.Core),
				fmt.Sprintf("%.3f", r.End.Micros()),
				fmt.Sprintf("%.3f", r.Wall.Micros()),
				r.Cause,
				p.Cause,
				fmt.Sprintf("%.3f", p.Time.Micros()),
				fmt.Sprintf("%.4f", share),
			})
		}
	}
	return report.WriteCSV(w, headers, rows)
}
