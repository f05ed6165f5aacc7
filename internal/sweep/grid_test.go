package sweep

import (
	"math"
	"reflect"
	"testing"
)

func TestParseAxisList(t *testing.T) {
	a, err := ParseAxis("v=0.25,0.5,1")
	if err != nil {
		t.Fatal(err)
	}
	want := Axis{Name: "v", Values: []float64{0.25, 0.5, 1}}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("got %+v, want %+v", a, want)
	}
}

func TestParseAxisRange(t *testing.T) {
	a, err := ParseAxis("phi=0:1:0.25")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if !reflect.DeepEqual(a.Values, want) {
		t.Errorf("got %v, want %v", a.Values, want)
	}
	// Descending range with negative step.
	a, err = ParseAxis("r=1:0.25:-0.25")
	if err != nil {
		t.Fatal(err)
	}
	want = []float64{1, 0.75, 0.5, 0.25}
	if !reflect.DeepEqual(a.Values, want) {
		t.Errorf("descending: got %v, want %v", a.Values, want)
	}
	// Endpoint inclusion survives float round-off.
	a, err = ParseAxis("x=0:0.3:0.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Values) != 4 {
		t.Errorf("0:0.3:0.1 expanded to %v, want 4 values", a.Values)
	}
	// An off-lattice hi is never overshot: no value past the bound.
	a, err = ParseAxis("v=0:3:2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Values, []float64{0, 2}) {
		t.Errorf("0:3:2 expanded to %v, want [0 2] (hi must not be exceeded)", a.Values)
	}
}

func TestParseAxisErrors(t *testing.T) {
	for _, spec := range []string{
		"", "v", "=1,2", "v=", "v=1,x,3", "v=1:2", "v=1:2:3:4",
		"v=0:1:0", "v=0:1:-0.5", "v=NaN", "v=Inf,1", "v=0:Inf:1",
		"v=0:1e9:1e-3", // over the expansion cap
	} {
		if _, err := ParseAxis(spec); err == nil {
			t.Errorf("ParseAxis(%q) accepted", spec)
		}
	}
}

func TestAxisRoundTrip(t *testing.T) {
	a, err := ParseAxis("tau=0.5,0.375,2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseAxis(a.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", a.String(), err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("round trip %+v != %+v", a, b)
	}
}

func TestGridPointOrder(t *testing.T) {
	g := Grid{Vals("a", 1, 2), Vals("b", 10, 20, 30)}
	if g.Size() != 6 {
		t.Fatalf("size = %d, want 6", g.Size())
	}
	want := [][]float64{{1, 10}, {1, 20}, {1, 30}, {2, 10}, {2, 20}, {2, 30}}
	for i, w := range want {
		if got := g.Point(i); !reflect.DeepEqual(got, w) {
			t.Errorf("Point(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestGridDegenerate(t *testing.T) {
	if got := (Grid{}).Size(); got != 1 {
		t.Errorf("empty grid size = %d, want 1", got)
	}
	if got := (Grid{Vals("a")}).Size(); got != 0 {
		t.Errorf("empty axis size = %d, want 0", got)
	}
	big := Axis{Name: "x", Values: make([]float64, 1<<21)}
	if got := (Grid{big, big}).Size(); got != -1 {
		t.Errorf("overflowing grid size = %d, want -1 sentinel", got)
	}
}

// TestGridJobs: the points × samples job count is exact up to the cap and an
// error past it — including products that would wrap int to a small or
// zero count — so no caller sizes a result slice from a wrapped product.
func TestGridJobs(t *testing.T) {
	g := Grid{Vals("d", 1, 2, 3, 4), Vals("r", 1, 2)}
	for _, c := range []struct{ samples, want int }{{0, 8}, {1, 8}, {5, 40}, {1 << 37, 1 << 40}} {
		if got, err := g.Jobs(c.samples); err != nil || got != c.want {
			t.Errorf("Jobs(%d) = %d, %v; want %d", c.samples, got, err, c.want)
		}
	}
	for _, samples := range []int{1<<37 + 1, 1 << 61, math.MaxInt} {
		if got, err := g.Jobs(samples); err == nil {
			t.Errorf("Jobs(%d) = %d, want an error", samples, got)
		}
	}
	if got, err := (Grid{Vals("a")}).Jobs(math.MaxInt); err != nil || got != 0 {
		t.Errorf("empty-axis Jobs = %d, %v; want 0", got, err)
	}
	big := Axis{Name: "x", Values: make([]float64, 1<<21)}
	if _, err := (Grid{big, big}).Jobs(1); err == nil {
		t.Error("over-cap grid accepted")
	}
}
