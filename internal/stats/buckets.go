package stats

import "fmt"

// DecadeBuckets are the latency thresholds of Tables 2 and 3, in
// microseconds: 1µs, 10µs, 100µs, 1ms, 10ms. A sixth implicit bucket
// ">10ms" holds everything else.
var DecadeBuckets = []float64{1, 10, 100, 1000, 10000}

// BucketLabels are the printable headers for DecadeBuckets plus the
// overflow bucket, in table order.
var BucketLabels = []string{"1µs", "10µs", "100µs", "1ms", "10ms", ">10ms"}

// Breakdown is a cumulative decade-bucket breakdown: Under[i] is the
// percentage of observations strictly below DecadeBuckets[i], and Over is
// the percentage at or above the last threshold. This is exactly the shape
// of a row of Table 2 or Table 3.
type Breakdown struct {
	Under [5]float64
	Over  float64
	N     int
}

// BreakdownOf classifies each value (microseconds) against DecadeBuckets
// and returns cumulative percentages.
func BreakdownOf(values []float64) Breakdown {
	var b Breakdown
	b.N = len(values)
	if b.N == 0 {
		return b
	}
	counts := [5]int{}
	over := 0
	for _, v := range values {
		placed := false
		for i, th := range DecadeBuckets {
			if v < th {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			over++
		}
	}
	// Cumulative: Under[i] counts everything below threshold i.
	cum := 0
	for i := range counts {
		cum += counts[i]
		b.Under[i] = 100 * float64(cum) / float64(b.N)
	}
	b.Over = 100 * float64(over) / float64(b.N)
	return b
}

// Row renders the breakdown as table cells (percentages with two decimals),
// matching the paper's layout: five cumulative columns plus the overflow.
func (b Breakdown) Row() []string {
	cells := make([]string, 0, 6)
	for _, u := range b.Under {
		cells = append(cells, fmt.Sprintf("%.2f", u))
	}
	cells = append(cells, fmt.Sprintf("%.2f", b.Over))
	return cells
}
