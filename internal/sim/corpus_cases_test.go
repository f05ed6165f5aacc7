package sim

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/algo"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/testutil"
	"repro/internal/trajectory"
)

// corpusCase is one rendezvous instance of the composed-result corpus
// (testdata/composed_results.txt): R runs program progA from the origin in
// the reference frame, and R′ runs program progB under attrs from d, with
// the combinator named by fault applied to R′'s program.
type corpusCase struct {
	name         string
	progA, progB string // "alg4", "alg7" or "finite"
	attrs        frame.Attributes
	d            geom.Vec
	r, horizon   float64
	// fault is "" (none), "cut:T", "delay:T", "freeze:FROM:TO" or
	// "mod:F1,F2,...".
	fault string
}

// corpusProgram returns the named program. "finite" is a prefix of
// Algorithm 4 lasting horizon/8 plus one segment, with a zero-duration wait
// inserted in its middle, so a walk reaches the final-position branch.
func corpusProgram(name string, horizon float64) trajectory.Source {
	switch name {
	case "alg4":
		return algo.CumulativeSearch()
	case "alg7":
		return algo.Universal()
	case "finite":
		prefix, _ := testutil.Segments(trajectory.Truncate(algo.CumulativeSearch(), horizon/8))
		half := len(prefix) / 2
		return trajectory.FromSlice(slices.Insert(prefix, half, segment.Wait{At: prefix[half].Start()}.Seg()))
	}
	panic("corpus: unknown program " + name)
}

// corpusFault applies the combinator spec names to src.
func corpusFault(spec string, src trajectory.Source) trajectory.Source {
	if spec == "" {
		return src
	}
	kind, args, _ := strings.Cut(spec, ":")
	var xs []float64
	for _, f := range strings.FieldsFunc(args, func(r rune) bool { return r == ':' || r == ',' }) {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			panic(err)
		}
		xs = append(xs, x)
	}
	switch kind {
	case "cut":
		return trajectory.CutAt(src, xs[0])
	case "delay":
		return trajectory.DelayStart(src, xs[0])
	case "freeze":
		return trajectory.FreezeDuring(src, xs[0], xs[1])
	case "mod":
		return trajectory.ModulateSpeed(src, xs)
	}
	panic("corpus: unknown fault " + spec)
}

// corpusCases lists the corpus: the four FuzzRendezvousMatchesComposed seeds
// under every pair of programs; E14's seven fault scenarios and E16's five
// modulation scenarios as the tables run them; speed modulation at τ ≠ 1,
// in short walks and in long ones that mostly end at the horizon;
// and the E14 faults at r = 0.1 on two more τ = 1 robots.
func corpusCases() []corpusCase {
	var cs []corpusCase
	seeds := []struct {
		d, r, angle, v, tau, phi, horizon float64
		ccw                               bool
	}{
		{2.0, 0.25, 0.3, 0.5, 1.0, 1.2, 300.0, true},
		{3.0, 0.1, 0.0, 1.0, 0.5, 0.7, 1000.0, true},
		{1.0, 0.05, 2.0, 1.0, 1.5, 3.0, 500.0, false},
		{0.7, 0.25, 4.1, 2.0, 0.5, 0.0, 2000.0, false},
	}
	programs := []string{"alg4", "alg7", "finite"}
	for i, s := range seeds {
		chi := frame.CCW
		if !s.ccw {
			chi = frame.CW
		}
		for _, pa := range programs {
			for _, pb := range programs {
				cs = append(cs, corpusCase{
					name:  fmt.Sprintf("seed%d/%s-%s", i, pa, pb),
					progA: pa, progB: pb,
					attrs: frame.Attributes{V: s.v, Tau: s.tau, Phi: s.phi, Chi: chi},
					d:     geom.Polar(s.d, s.angle), r: s.r, horizon: s.horizon,
				})
			}
		}
	}

	faults := []string{"", "cut:0", "cut:50", "cut:500", "delay:10", "delay:100", "freeze:100:300"}
	for _, f := range faults {
		cs = append(cs, corpusCase{
			name: "e14/" + f, progA: "alg4", progB: "alg4",
			attrs: frame.Reference(), d: geom.V(1, 0), r: 0.25, horizon: 5e4, fault: f,
		})
	}

	ident := frame.Reference()
	feasible := frame.Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: frame.CCW}
	for _, e := range []struct {
		attrs frame.Attributes
		mod   string
	}{{ident, ""}, {ident, "mod:0.8,1.25"}, {ident, "mod:0.5"}, {feasible, ""}, {feasible, "mod:0.9,1.1,1.3"}} {
		cs = append(cs, corpusCase{
			name: fmt.Sprintf("e16/v=%g/%s", e.attrs.V, e.mod), progA: "alg4", progB: "alg4",
			attrs: e.attrs, d: geom.V(1, 0), r: 0.25, horizon: 5e4, fault: e.mod,
		})
	}

	for i, m := range []struct {
		pa, pb string
		attrs  frame.Attributes
		mod    string
	}{
		{"alg4", "alg4", frame.Attributes{V: 0.8, Tau: 1.5, Phi: 0.4, Chi: frame.CW}, "mod:0.8,1.25"},
		{"alg7", "alg7", frame.Attributes{V: 1, Tau: 0.7, Phi: 2, Chi: frame.CCW}, "mod:0.5"},
		{"alg4", "alg7", frame.Attributes{V: 0.6, Tau: 2.5, Phi: 1, Chi: frame.CCW}, "mod:1.3,0.7,1.1"},
		{"finite", "finite", frame.Attributes{V: 1.2, Tau: 0.6, Phi: 5, Chi: frame.CW}, "mod:0.9,1.2"},
	} {
		cs = append(cs, corpusCase{
			name: fmt.Sprintf("mod-tau/%d", i), progA: m.pa, progB: m.pb,
			attrs: m.attrs, d: geom.V(1.2, -0.4), r: 0.2, horizon: 2000, fault: m.mod,
		})
	}
	// Long walks at small radii, most ending at the horizon, so the
	// gap and distances there depend on every modulated duration.
	for i, m := range []struct {
		pa, pb     string
		attrs      frame.Attributes
		mod        string
		r, horizon float64
	}{
		{"alg4", "alg4", frame.Attributes{V: 1, Tau: 1.37, Phi: 0.3, Chi: frame.CCW}, "mod:0.83,1.17,0.91", 0.05, 1500},
		{"alg7", "alg4", frame.Attributes{V: 0.9, Tau: 0.77, Phi: 4, Chi: frame.CW}, "mod:1.07,0.93", 0.05, 800},
		{"alg4", "alg4", frame.Attributes{V: 1, Tau: 1.23, Phi: 0, Chi: frame.CCW}, "mod:0.97", 0.01, 300},
		{"finite", "alg7", frame.Attributes{V: 0.7, Tau: 2.2, Phi: 1.9, Chi: frame.CW}, "mod:1.11,0.89,1.03", 0.02, 400},
	} {
		cs = append(cs, corpusCase{
			name: fmt.Sprintf("mod-tau-long/%d", i), progA: m.pa, progB: m.pb,
			attrs: m.attrs, d: geom.V(2.3, 1.1), r: m.r, horizon: m.horizon, fault: m.mod,
		})
	}

	for _, attrs := range []frame.Attributes{
		{V: 0.5, Tau: 1, Phi: 0, Chi: frame.CCW},
		{V: 1, Tau: 1, Phi: 1.3, Chi: frame.CW},
	} {
		for _, f := range append(faults[1:], "freeze:7.5:9") {
			cs = append(cs, corpusCase{
				name: fmt.Sprintf("faults/v=%g,phi=%g/%s", attrs.V, attrs.Phi, f), progA: "alg4", progB: "alg4",
				attrs: attrs, d: geom.V(0.8, 0.9), r: 0.1, horizon: 3000, fault: f,
			})
		}
	}
	return cs
}

// formatCorpusResult renders a Result (or error) as one corpus line: the
// case name, then every field, floats as their IEEE-754 bits in hex.
func formatCorpusResult(name string, res Result, err error) string {
	if err != nil {
		return fmt.Sprintf("%s error %q", name, err.Error())
	}
	bits := func(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }
	return fmt.Sprintf("%s met=%t time=%s whereA=%s,%s whereB=%s,%s gap=%s distA=%s distB=%s intervals=%d",
		name, res.Met, bits(res.Time), bits(res.WhereA.X), bits(res.WhereA.Y),
		bits(res.WhereB.X), bits(res.WhereB.Y), bits(res.Gap),
		bits(res.DistanceA), bits(res.DistanceB), res.Intervals)
}
