package plot

import (
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/trajectory"
)

func sampleTrace(t *testing.T) *trace.Trace {
	t.Helper()
	attrs := frame.Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: frame.CCW}
	tr, err := trace.Record([]trajectory.Source{algo.CumulativeSearch(), algo.CumulativeSearch()},
		[]segment.Frame{frame.Reference().Frame(geom.Zero), attrs.Frame(geom.V(1, 0))},
		[]string{"R", "Rp"}, 20, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTracks(t *testing.T) {
	tr := sampleTrace(t)
	out, err := Tracks(tr, 60, 20)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// header + top border + 20 rows + bottom border
	if len(lines) != 23 {
		t.Fatalf("got %d lines, want 23", len(lines))
	}
	if !strings.Contains(lines[0], "a=R") || !strings.Contains(lines[0], "b=Rp") {
		t.Errorf("legend missing: %q", lines[0])
	}
	body := strings.Join(lines[1:], "\n")
	for _, g := range []string{"a", "b", "A", "B"} {
		if !strings.Contains(body, g) {
			t.Errorf("glyph %q missing from plot", g)
		}
	}
	for _, row := range lines[2:22] {
		if len(row) != 62 { // '|' + 60 + '|'
			t.Errorf("row width %d, want 62: %q", len(row), row)
		}
	}
}

func TestGap(t *testing.T) {
	tr := sampleTrace(t)
	out, err := Gap(tr, 0, 1, 50, 12, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "*") {
		t.Error("no gap samples drawn")
	}
	if !strings.Contains(out, "-") {
		t.Error("no radius marker drawn")
	}
	if !strings.Contains(out, "gap |R−Rp|") {
		t.Errorf("header wrong: %q", strings.SplitN(out, "\n", 2)[0])
	}
}

func TestGridValidation(t *testing.T) {
	tr := sampleTrace(t)
	if _, err := Tracks(tr, 4, 20); err == nil {
		t.Error("narrow grid accepted")
	}
	if _, err := Gap(tr, 0, 1, 50, 2, 0); err == nil {
		t.Error("short grid accepted")
	}
	if _, err := Gap(tr, 0, 7, 50, 12, 0); err == nil {
		t.Error("bad robot index accepted")
	}
}

func TestTracksDegenerateExtent(t *testing.T) {
	// A static pair (identical positions throughout) must not divide by
	// zero when scaling.
	a := trajectory.Stationary(geom.V(1, 1))
	b := trajectory.Stationary(geom.V(1, 1.000000000001))
	id := frame.Reference().Frame(geom.Zero)
	tr, err := trace.Record([]trajectory.Source{a, b}, []segment.Frame{id, id}, []string{"x", "y"}, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Tracks(tr, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "A") {
		t.Error("start marker missing on degenerate plot")
	}
}

func TestEmptyTrace(t *testing.T) {
	empty := &trace.Trace{Names: []string{"a"}}
	if _, err := Tracks(empty, 20, 8); err == nil {
		t.Error("empty trace accepted by Tracks")
	}
	if _, err := Gap(empty, 0, 0, 20, 8, 0); err == nil {
		t.Error("empty trace accepted by Gap")
	}
}
