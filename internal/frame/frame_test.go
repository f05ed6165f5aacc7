package frame

import (
	"errors"
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/geom"
	"repro/internal/testutil"
	"repro/internal/trajectory"
)

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		a    Attributes
		want error
	}{
		{"reference", Reference(), nil},
		{"typical", Attributes{V: 0.5, Tau: 2, Phi: 1, Chi: CW}, nil},
		{"zero-speed", Attributes{V: 0, Tau: 1, Chi: CCW}, ErrNonPositiveSpeed},
		{"negative-speed", Attributes{V: -1, Tau: 1, Chi: CCW}, ErrNonPositiveSpeed},
		{"zero-clock", Attributes{V: 1, Tau: 0, Chi: CCW}, ErrNonPositiveClock},
		{"bad-chirality", Attributes{V: 1, Tau: 1, Chi: 0}, ErrBadChirality},
		{"nan-phi", Attributes{V: 1, Tau: 1, Phi: math.NaN(), Chi: CCW}, ErrNotFinite},
		{"inf-speed", Attributes{V: math.Inf(1), Tau: 1, Chi: CCW}, ErrNotFinite},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Validate(); !errors.Is(got, tt.want) {
				t.Errorf("Validate() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestReferenceIsIdentity(t *testing.T) {
	ref := Reference()
	if got := ref.LinearMap(); !got.ApproxEqual(geom.Identity, 1e-15) {
		t.Errorf("reference LinearMap = %v, want identity", got)
	}
	if got := ref.DistanceUnit(); got != 1 {
		t.Errorf("reference DistanceUnit = %v, want 1", got)
	}
	fr := ref.Frame(geom.Zero)
	var got float64
	cur := trajectory.NewCursor(algo.SearchCircle(2))
	for s, ok := cur.Next(); ok; s, ok = cur.Next() {
		d, _ := fr.DurationAndLength(&s)
		got += d
	}
	if want := trajectory.Duration(algo.SearchCircle(2)); math.Abs(got-want) > 1e-12 {
		t.Errorf("reference-framed duration = %v, want %v", got, want)
	}
}

// TestApplySemantics pins down the paper's frame interpretation on a simple
// "move distance 3 along local +x" program.
func TestApplySemantics(t *testing.T) {
	a := Attributes{V: 0.5, Tau: 4, Phi: math.Pi / 2, Chi: CCW}
	circle, _ := testutil.Segments(algo.SearchCircle(3))
	local := trajectory.FromSlice(circle[:1]) // just the outbound line
	segs, _ := testutil.Segments(local)
	if len(segs) != 1 {
		t.Fatalf("got %d segments", len(segs))
	}
	fr := a.Frame(geom.V(10, 0))
	seg := &segs[0]
	// Global duration: τ·3 = 12.
	if got, _ := fr.DurationAndLength(seg); math.Abs(got-12) > 1e-12 {
		t.Errorf("duration = %v, want 12", got)
	}
	// Global displacement: vτ·3 = 6 along global +y (φ = π/2), from (10,0).
	if _, got := fr.Endpoints(seg); !got.ApproxEqual(geom.V(10, 6), 1e-9) {
		t.Errorf("end = %v, want (10,6)", got)
	}
	// Global speed: v = 0.5.
	if got := fr.MaxSpeed(seg); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("speed = %v, want 0.5", got)
	}
}

func TestApplyChirality(t *testing.T) {
	// With χ = −1 the local point (0, 1) maps to global -y side.
	a := Attributes{V: 1, Tau: 1, Phi: 0, Chi: CW}
	if got := a.LinearMap().Apply(geom.V(0, 1)); !got.ApproxEqual(geom.V(0, -1), 1e-12) {
		t.Errorf("chirality map = %v, want (0,-1)", got)
	}
}

func TestLinearMapMatchesLemmaFour(t *testing.T) {
	// For τ = 1 the map must be exactly v·Rot(φ)·Diag(1,χ).
	a := Attributes{V: 0.7, Tau: 1, Phi: 1.2, Chi: CW}
	want := geom.FrameMatrix(0.7, 1.2, -1)
	if got := a.LinearMap(); !got.ApproxEqual(want, 1e-12) {
		t.Errorf("LinearMap = %v, want %v", got, want)
	}
}

func TestMu(t *testing.T) {
	a := Attributes{V: 0.5, Tau: 1, Phi: math.Pi, Chi: CCW}
	if got := a.Mu(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Mu = %v, want 1.5", got)
	}
}

func TestSymmetricTo(t *testing.T) {
	ref := Reference()
	tests := []struct {
		name string
		b    Attributes
		want bool
	}{
		{"identical", Reference(), true},
		{"phi-2pi-wraps", Attributes{V: 1, Tau: 1, Phi: 2 * math.Pi, Chi: CCW}, true},
		{"different-speed", Attributes{V: 0.9, Tau: 1, Phi: 0, Chi: CCW}, false},
		{"different-clock", Attributes{V: 1, Tau: 0.5, Phi: 0, Chi: CCW}, false},
		{"different-orientation", Attributes{V: 1, Tau: 1, Phi: 1, Chi: CCW}, false},
		{"different-chirality", Attributes{V: 1, Tau: 1, Phi: 0, Chi: CW}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ref.SymmetricTo(tt.b); got != tt.want {
				t.Errorf("SymmetricTo = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestNormPhi(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * math.Pi, math.Pi},
	}
	for _, tt := range tests {
		a := Attributes{V: 1, Tau: 1, Phi: tt.in, Chi: CCW}
		if got := a.NormPhi(); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("NormPhi(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestChiralityString(t *testing.T) {
	if CCW.String() != "ccw" || CW.String() != "cw" {
		t.Error("chirality strings wrong")
	}
	if Chirality(0).String() != "Chirality(0)" {
		t.Errorf("invalid chirality string = %q", Chirality(0).String())
	}
}

// TestFrameCompositionAgainstDirectFormula samples a frame-applied search
// trajectory and compares with the analytic transform of the local one.
func TestFrameCompositionAgainstDirectFormula(t *testing.T) {
	a := Attributes{V: 0.6, Tau: 1.5, Phi: 2.2, Chi: CW}
	origin := geom.V(3, -4)

	local := trajectory.NewPath(algo.SearchRound(2), nil)
	fr := a.Frame(origin)
	global := trajectory.NewPath(algo.SearchRound(2), &fr)

	m := a.Affine(origin)
	for i := 0; i <= 200; i++ {
		tGlobal := float64(i) * 0.9
		want := m.Apply(local.Position(tGlobal / a.Tau))
		got := global.Position(tGlobal)
		if !got.ApproxEqual(want, 1e-9) {
			t.Fatalf("t=%v: got %v, want %v", tGlobal, got, want)
		}
	}
}
