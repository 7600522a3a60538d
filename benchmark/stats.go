package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one reported number. N is the number of samples behind it (0 for
// a count or a single measurement) and Stat says which statistic of those
// samples Value is.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	Stat  string
}

func (m metric) String() string {
	s := fmt.Sprintf("%-32s %14.4f %-9s", m.Name, m.Value, m.Unit)
	if m.N > 0 {
		s += fmt.Sprintf(" n=%d", m.N)
	}
	if m.Stat != "" {
		s += " " + m.Stat
	}
	return s
}

// latencies collects per-operation durations in nanoseconds.
type latencies []int64

func (l *latencies) add(d time.Duration) { *l = append(*l, int64(d)) }

func (l latencies) sorted() []int64 {
	s := append([]int64(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between order statistics, or NaN for an empty sample.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// tailPercentiles are the candidates for "the highest percentile with at
// least ten samples beyond it".
var tailPercentiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.75}

// highestSupported returns the largest candidate percentile that leaves at
// least ten of n samples beyond it, or 0 when n is too small for any.
func highestSupported(n int) float64 {
	for _, p := range tailPercentiles {
		if n >= int(math.Round(10/(1-p))) {
			return p
		}
	}
	return 0
}

func pctName(p float64) string {
	return "p" + trimFloat(p*100)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// timing turns a latency sample into a named metric at quantile q, scaled
// from nanoseconds by div (1e3 for µs, 1e6 for ms).
func timing(name, unit string, l latencies, q float64, div float64) metric {
	return metric{Name: name, Unit: unit, Value: quantile(l.sorted(), q) / div, N: len(l), Stat: pctName(q)}
}

// tailNote renders the highest percentile the sample supports, as the text
// printed beside a latency's median.
func tailNote(name string, l latencies, unit string, div float64) string {
	p := highestSupported(len(l))
	if p == 0 {
		return fmt.Sprintf("%s: n=%d, too few samples for a tail percentile", name, len(l))
	}
	s := l.sorted()
	return fmt.Sprintf("%s: n=%d p50=%.2f%s %s=%.2f%s max=%.2f%s", name, len(l),
		quantile(s, 0.5)/div, unit, pctName(p), quantile(s, p)/div, unit, float64(s[len(s)-1])/div, unit)
}

func medianFloat(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDuration(ds []time.Duration) time.Duration {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d)
	}
	return time.Duration(medianFloat(vs))
}
