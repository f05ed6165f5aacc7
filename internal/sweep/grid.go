package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sampler"
)

// Axis is one swept parameter: a name and its ordered values. Experiments
// build axes for speed ratio, clock unit, orientation, visibility radius —
// whatever the instance grid varies.
type Axis struct {
	Name   string
	Values []float64
}

// Vals is a convenience constructor for a literal axis.
func Vals(name string, values ...float64) Axis {
	return Axis{Name: name, Values: values}
}

// ParseAxis parses a command-line axis spec. Two forms are accepted:
//
//	name=v1,v2,v3      explicit values
//	name=lo:hi:step    arithmetic range; hi is included when it lies on
//	                   the step lattice (within float round-off), and no
//	                   value ever exceeds hi
//
// All values must be finite, the step must be non-zero and point from lo
// toward hi, and the expansion of a range is capped at 1e6 values.
func ParseAxis(spec string) (Axis, error) {
	name, rest, ok := strings.Cut(spec, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" {
		return Axis{}, fmt.Errorf("sweep: axis spec %q: want name=values", spec)
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return Axis{}, fmt.Errorf("sweep: axis %q: empty value list", name)
	}
	if strings.Contains(rest, ":") {
		parts := strings.Split(rest, ":")
		if len(parts) != 3 {
			return Axis{}, fmt.Errorf("sweep: axis %q: range wants lo:hi:step", name)
		}
		lo, err := parseFinite(parts[0])
		if err != nil {
			return Axis{}, fmt.Errorf("sweep: axis %q lo: %w", name, err)
		}
		hi, err := parseFinite(parts[1])
		if err != nil {
			return Axis{}, fmt.Errorf("sweep: axis %q hi: %w", name, err)
		}
		step, err := parseFinite(parts[2])
		if err != nil {
			return Axis{}, fmt.Errorf("sweep: axis %q step: %w", name, err)
		}
		if step == 0 || (hi-lo)*step < 0 {
			return Axis{}, fmt.Errorf("sweep: axis %q: step %v does not reach %v from %v", name, step, hi, lo)
		}
		span := math.Abs((hi - lo) / step)
		if span > 1e6 {
			return Axis{}, fmt.Errorf("sweep: axis %q: range expands to %g values", name, span)
		}
		// n absorbs only float round-off at the top endpoint (so hi on the
		// step lattice stays included) without ever overshooting hi: values
		// past the bound would leave the caller's parameter domain.
		n := int(span + 1e-9*(span+1))
		vs := make([]float64, 0, n+1)
		for i := 0; i <= n; i++ {
			vs = append(vs, lo+float64(i)*step)
		}
		return Axis{Name: name, Values: vs}, nil
	}
	var vs []float64
	for _, tok := range strings.Split(rest, ",") {
		v, err := parseFinite(tok)
		if err != nil {
			return Axis{}, fmt.Errorf("sweep: axis %q: %w", name, err)
		}
		vs = append(vs, v)
	}
	return Axis{Name: name, Values: vs}, nil
}

func parseFinite(tok string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %v", v)
	}
	return v, nil
}

// String renders the axis back into ParseAxis's explicit-list form.
func (a Axis) String() string {
	parts := make([]string, len(a.Values))
	for i, v := range a.Values {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return a.Name + "=" + strings.Join(parts, ",")
}

// Grid is the cross product of its axes; the last axis varies fastest, like
// nested loops written in declaration order.
type Grid []Axis

// ParseGrid parses one spec per axis.
func ParseGrid(specs ...string) (Grid, error) {
	g := make(Grid, 0, len(specs))
	for _, s := range specs {
		a, err := ParseAxis(s)
		if err != nil {
			return nil, err
		}
		g = append(g, a)
	}
	return g, nil
}

// maxJobs caps a grid sweep's dense job space, points × samples: far past
// any sweep whose result slice fits in memory, and far below int overflow.
const maxJobs = 1 << 40

// Size is the number of grid points (1 for an empty grid: the single empty
// assignment). A grid with an empty axis has size 0; a grid of more than
// 2⁴⁰ points has size −1.
func (g Grid) Size() int {
	n := 1
	for _, a := range g {
		if len(a.Values) == 0 {
			return 0
		}
		if n > maxJobs/len(a.Values) {
			return -1 // overflow sentinel; Jobs rejects it
		}
		n *= len(a.Values)
	}
	return n
}

// Jobs returns the dense job count of a sweep running samples jobs per
// grid point, Size()·samples (samples < 1 is treated as 1). It is an error
// when the count exceeds 2⁴⁰, which also keeps the product from
// overflowing int.
func (g Grid) Jobs(samples int) (int, error) {
	samples = max(samples, 1)
	points := g.Size()
	if points < 0 || points > 0 && samples > maxJobs/points {
		return 0, fmt.Errorf("sweep: grid of %d axes × %d samples per point is too large", len(g), samples)
	}
	return points * samples, nil
}

// Point decodes grid point i into one value per axis (mixed-radix, last
// axis fastest).
func (g Grid) Point(i int) []float64 {
	out := make([]float64, len(g))
	for ax := len(g) - 1; ax >= 0; ax-- {
		k := len(g[ax].Values)
		out[ax] = g[ax].Values[i%k]
		i /= k
	}
	return out
}

// RunGridSampled evaluates fn at every point of the grid, samples times per
// point (samples < 1 is treated as 1), through the worker pool; the
// callback receives the opt.Sampler draw handle of its dense job index.
// Job order — and therefore result order and per-job draws — is
// point-major: all samples of point 0, then all samples of point 1, and so
// on. The flat result slice has length Size()·samples. Samples of one grid
// point occupy consecutive indices, so a sampler whose block size equals
// samples stratifies each point's estimate independently.
func RunGridSampled[T any](g Grid, samples int, fn func(point []float64, sample int, d sampler.Draws) (T, error), opt Options) ([]T, error) {
	samples = max(samples, 1)
	n, err := g.Jobs(samples)
	if err != nil {
		return nil, err
	}
	if fn == nil {
		return nil, fmt.Errorf("sweep: nil job function")
	}
	return RunSampled(n, func(i int, d sampler.Draws) (T, error) {
		return fn(g.Point(i/samples), i%samples, d)
	}, opt)
}
