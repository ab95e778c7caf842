package costmodel

import "sort"

// FitLinear computes the least-squares line y = a·x + b through the
// points. With fewer than two distinct x values it degenerates to a
// constant fit.
func FitLinear(xs, ys []float64) (a, b float64) {
	n := float64(len(xs))
	if len(xs) == 0 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n
	}
	a = (n*sxy - sx*sy) / den
	b = (sy - a*sx) / n
	return a, b
}

// FitLinFn fits a LinFn through the samples, clamping a slightly negative
// slope (measurement noise on a flat function) to zero.
func FitLinFn(xs, ys []float64) LinFn {
	a, b := FitLinear(xs, ys)
	if a < 0 {
		// Runtimes can only grow with work; a negative slope is noise.
		mean := 0.0
		for _, y := range ys {
			mean += y
		}
		mean /= float64(len(ys))
		return LinFn{A: 0, B: mean}
	}
	return LinFn{A: a, B: b}
}

// FitPiecewise builds a piecewise-linear function from sample points,
// sorting by x and averaging duplicate x values.
func FitPiecewise(xs, ys []float64) PiecewiseFn {
	type pt struct{ x, y float64 }
	pts := make([]pt, len(xs))
	for i := range xs {
		pts[i] = pt{xs[i], ys[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	var out PiecewiseFn
	i := 0
	for i < len(pts) {
		j := i
		sum := 0.0
		for j < len(pts) && pts[j].x == pts[i].x {
			sum += pts[j].y
			j++
		}
		out.Xs = append(out.Xs, pts[i].x)
		out.Ys = append(out.Ys, sum/float64(j-i))
		i = j
	}
	return out
}

// NormalizePiecewise scales the function so that f(x0) = 1.
func NormalizePiecewise(f PiecewiseFn, x0 float64) PiecewiseFn {
	d := f.At(x0)
	if d == 0 {
		return f
	}
	out := PiecewiseFn{Xs: append([]float64{}, f.Xs...), Ys: make([]float64, len(f.Ys))}
	for i, y := range f.Ys {
		out.Ys[i] = y / d
	}
	return out
}

// MeanAbsError computes the mean |pred-actual|/actual over paired samples,
// the estimation-accuracy metric of Figure 6.
func MeanAbsError(pred, actual []float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	sum := 0.0
	n := 0
	for i := range pred {
		if actual[i] == 0 {
			continue
		}
		d := (pred[i] - actual[i]) / actual[i]
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
