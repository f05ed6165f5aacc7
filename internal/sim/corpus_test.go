package sim

import (
	"os"
	"strings"
	"testing"
)

// TestRendezvousMatchesComposedCorpus checks the rendezvous walks, which
// place each robot's raw local program under its frame, against Results
// recorded from the composed path they replaced: FirstMeeting over globally
// framed programs, with the fault or modulation applied to R′'s framed
// program (testdata/composed_results.txt, every field as IEEE-754 bits).
// Here the combinator is applied to R′'s local program instead. For faults
// that is the same motion only at τ = 1, where the program's clock is the
// global clock, so every fault case has τ = 1; modulation is pinned at
// τ ≠ 1 as well, because its dilation stays outside the frame.
func TestRendezvousMatchesComposedCorpus(t *testing.T) {
	data, err := os.ReadFile("testdata/composed_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	cases := corpusCases()
	if len(want) != len(cases) {
		t.Fatalf("corpus has %d results for %d cases", len(want), len(cases))
	}
	for i, c := range cases {
		in := Instance{Attrs: c.attrs, D: c.d, R: c.r}
		opt := Options{Horizon: c.horizon}
		progB := corpusFault(c.fault, corpusProgram(c.progB, c.horizon))
		res, err := RendezvousAsymmetric(corpusProgram(c.progA, c.horizon), progB, in, opt)
		if got := formatCorpusResult(c.name, res, err); got != want[i] {
			t.Errorf("RendezvousAsymmetric:\ngot  %s\nwant %s", got, want[i])
		}
		if c.progA == c.progB && c.fault == "" {
			res, err := Rendezvous(corpusProgram(c.progA, c.horizon), in, opt)
			if got := formatCorpusResult(c.name, res, err); got != want[i] {
				t.Errorf("Rendezvous:\ngot  %s\nwant %s", got, want[i])
			}
		}
	}
}
