package core

import (
	"fmt"
	"strings"

	"ksa/internal/report"
)

// csvString renders headers and rows as CSV text. Writes to a
// strings.Builder cannot fail, so neither can this.
func csvString(headers []string, rows [][]string) string {
	var sb strings.Builder
	report.WriteCSV(&sb, headers, rows) //nolint:errcheck // strings.Builder never fails
	return sb.String()
}

// CSV renders the Figure 2 series (one row per category × VM count with
// the violin landmarks) for external plotting.
func (r Figure2Result) CSV() string {
	headers := []string{"category", "vms", "n", "min_us", "q1_us", "median_us", "q3_us", "p97_5_us", "max_us"}
	var rows [][]string
	f := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	for ci, cat := range r.Categories {
		for vi, n := range r.VMCounts {
			v := r.Violins[ci][vi]
			rows = append(rows, []string{
				cat, fmt.Sprintf("%d", n), fmt.Sprintf("%d", v.N),
				f(v.Min), f(v.Q1), f(v.Median), f(v.Q3), f(v.P97_5), f(v.Max),
			})
		}
	}
	return csvString(headers, rows)
}

// CSV renders the Figure 3 rows.
func (r Figure3Result) CSV() string {
	headers := []string{"app", "kvm_iso_us", "kvm_cont_us", "docker_iso_us", "docker_cont_us", "kvm_increase_pct", "docker_increase_pct"}
	var rows [][]string
	f := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	for _, row := range r.Rows {
		rows = append(rows, []string{row.App, f(row.KVMIso), f(row.KVMCont),
			f(row.DockerIso), f(row.DockerCont), f(row.KVMIncrease), f(row.DockerIncrease)})
	}
	return csvString(headers, rows)
}

// CSV renders the Figure 4 rows.
func (r Figure4Result) CSV() string {
	headers := []string{"app", "kvm_iso_ms", "kvm_cont_ms", "docker_iso_ms", "docker_cont_ms", "kvm_loss_pct", "docker_loss_pct"}
	var rows [][]string
	f := func(v float64) string { return fmt.Sprintf("%.3f", v) }
	for _, row := range r.Rows {
		rows = append(rows, []string{row.App, f(row.KVMIso), f(row.KVMCont),
			f(row.DockerIso), f(row.DockerCont), f(row.KVMLoss), f(row.DockerLoss)})
	}
	return csvString(headers, rows)
}
