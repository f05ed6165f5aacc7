package trajectory

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/segment"
)

func TestModulateSpeedDurations(t *testing.T) {
	src := func() Source {
		return FromSlice([]segment.Seg{
			line(0, 0, 1, 0), // duration 1
			line(1, 0, 3, 0), // duration 2
			line(3, 0, 4, 0), // duration 1
		})
	}
	// Factors cycle: 2, 0.5 → durations 0.5, 4, 0.5.
	mod := ModulateSpeed(src(), []float64{2, 0.5})
	if d := Duration(mod); math.Abs(d-5) > 1e-12 {
		t.Errorf("modulated duration = %v, want 5", d)
	}
	// Geometry is unchanged and continuous.
	if segs, gap := collect(ModulateSpeed(src(), []float64{2, 0.5})); gap > 1e-12 || len(segs) != 3 {
		t.Errorf("gap=%v n=%d", gap, len(segs))
	}
	// First segment now takes 0.5: position at t=0.25 is (0.5, 0).
	p := NewPath(ModulateSpeed(src(), []float64{2, 0.5}), nil)
	if got := p.Position(0.25); !got.ApproxEqual(geom.V(0.5, 0), 1e-12) {
		t.Errorf("Position(0.25) = %v, want (0.5, 0)", got)
	}
	// Second segment runs at half speed: ends at t = 0.5 + 4 = 4.5.
	if got := p.Position(4.5); !got.ApproxEqual(geom.V(3, 0), 1e-12) {
		t.Errorf("Position(4.5) = %v, want (3, 0)", got)
	}
}

func TestModulateSpeedNoFactors(t *testing.T) {
	src := FromSlice([]segment.Seg{line(0, 0, 1, 0)})
	if d := Duration(ModulateSpeed(src, nil)); math.Abs(d-1) > 1e-12 {
		t.Errorf("no-factor modulation changed duration to %v", d)
	}
}

func TestModulateSpeedPanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero factor")
		}
	}()
	ModulateSpeed(FromSlice(nil), []float64{1, 0})
}

func TestModulateSpeedMaxSpeed(t *testing.T) {
	src := FromSlice([]segment.Seg{line(0, 0, 1, 0)})
	segs, _ := collect(ModulateSpeed(src, []float64{2.5}))
	if got := segs[0].MaxSpeed(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("modulated MaxSpeed = %v, want 2.5", got)
	}
}
