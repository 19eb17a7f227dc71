package stats

import "math"

// Violin summarizes a distribution the way Figure 2's violin plots do: the
// median (white dot), interquartile range (thick box), a 95% band (thin
// whiskers), the extrema, and a kernel-density profile over log-spaced
// points (the violin outline).
type Violin struct {
	N           int
	Min, Max    float64
	Q1, Q3      float64 // interquartile box
	P2_5, P97_5 float64 // 95% band
	Median      float64
	// Density is the kernel density estimate evaluated at DensityAt points
	// (log-spaced between Min and Max), normalized so the peak is 1.
	DensityAt []float64
	Density   []float64
}

// ViolinOf computes the summary from a sample. points controls the density
// resolution (16 is plenty for the textual figures; 0 disables density).
func ViolinOf(s *Sample, points int) Violin {
	v := Violin{
		N:      s.Len(),
		Min:    s.Min(),
		Max:    s.Max(),
		Q1:     s.Quantile(0.25),
		Q3:     s.Quantile(0.75),
		P2_5:   s.Quantile(0.025),
		P97_5:  s.Quantile(0.975),
		Median: s.Median(),
	}
	if points <= 0 || v.N < 2 || v.Max <= v.Min {
		return v
	}
	// Work in log space: the figure's y-axis is logarithmic, and syscall
	// latencies span several decades.
	lo, hi := math.Log(math.Max(v.Min, 1e-6)), math.Log(math.Max(v.Max, 1e-6))
	if hi <= lo {
		return v
	}
	// The weighted distinct-value view works for both backends: exact
	// samples visit each observation with weight 1, sketches visit each
	// populated bucket's representative with its count, so the KDE cost
	// scales with distinct values rather than observations.
	type weighted struct {
		log float64
		w   float64
	}
	var logs []weighted
	var total float64
	s.Each(func(x float64, count uint64) {
		logs = append(logs, weighted{math.Log(math.Max(x, 1e-6)), float64(count)})
		total += float64(count)
	})
	// Silverman bandwidth on the (weighted) log-values.
	mean := 0.0
	for _, l := range logs {
		mean += l.w * l.log
	}
	mean /= total
	variance := 0.0
	for _, l := range logs {
		d := l.log - mean
		variance += l.w * d * d
	}
	variance /= total
	bw := 1.06 * math.Sqrt(variance) * math.Pow(total, -0.2)
	if bw <= 0 {
		bw = (hi - lo) / 10
	}
	v.DensityAt = make([]float64, points)
	v.Density = make([]float64, points)
	peak := 0.0
	for i := 0; i < points; i++ {
		at := lo + (hi-lo)*float64(i)/float64(points-1)
		v.DensityAt[i] = math.Exp(at)
		d := 0.0
		for _, l := range logs {
			z := (at - l.log) / bw
			d += l.w * math.Exp(-0.5*z*z)
		}
		v.Density[i] = d
		if d > peak {
			peak = d
		}
	}
	if peak > 0 {
		for i := range v.Density {
			v.Density[i] /= peak
		}
	}
	return v
}
