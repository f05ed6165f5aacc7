package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cache"
)

// TestRunGridCfgDeterminism: a CLI grid sweep renders byte-identically at
// any worker count, with or without a cache, warm or cold.
func TestRunGridCfgDeterminism(t *testing.T) {
	specs := []string{"v=0.25,0.5,0.75", "phi=0:2:1"}
	render := func(cfg Config) string {
		var buf bytes.Buffer
		if err := RunGridCfg(&buf, false, specs, "search", cfg); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := render(Config{Workers: 1, Seed: 5, Samples: 3})
	if got := render(Config{Workers: 8, Seed: 5, Samples: 3}); got != want {
		t.Error("grid output differs between worker counts")
	}
	warm := cache.New(0)
	if got := render(Config{Workers: 8, Seed: 5, Samples: 3, Cache: warm}); got != want {
		t.Error("grid output differs with a cold cache")
	}
	if got := render(Config{Workers: 1, Seed: 5, Samples: 3, Cache: warm}); got != want {
		t.Error("grid output differs with a warm cache")
	}
	if s := warm.Stats(); s.Hits == 0 {
		t.Errorf("warm grid re-run hit the cache 0 times: %+v", s)
	}
	if !strings.Contains(want, "T_p90") {
		t.Errorf("summary columns missing from grid table:\n%s", want)
	}
}

// TestRunGridCfgRejectsBadAxes: unknown parameters, empty grids, and bad
// algorithms fail fast with a diagnostic instead of running.
func TestRunGridCfgRejectsBadAxes(t *testing.T) {
	var buf bytes.Buffer
	for _, tc := range []struct {
		specs []string
		algo  string
	}{
		{[]string{"warp=1,2"}, "search"},       // unknown axis
		{[]string{"chi=0.5"}, "search"},        // invalid chirality
		{[]string{"v=0.5"}, "teleport"},        // unknown algorithm
		{[]string{}, "search"},                 // no axes at all
		{[]string{"v=not-a-number"}, "search"}, // parse failure
	} {
		if err := RunGridCfg(&buf, false, tc.specs, tc.algo, Config{Workers: 1}); err == nil {
			t.Errorf("specs %v algo %q accepted", tc.specs, tc.algo)
		}
	}
}

// TestRunAllSharedPoolMatchesSerial: the shared-pool RunAllCfg path renders
// byte-identically across worker counts and cache configurations on a
// representative subset of the suite.
func TestRunAllSharedPoolMatchesSerial(t *testing.T) {
	runners := []Runner{
		{"E2", E2DurationsCfg},
		{"E3", E3SameChiralityCfg},
		{"E6", E6OverlapCfg},
		{"E14", E14FaultInjectionCfg},
		{"A1", A1FixedStepDetectorCfg},
	}
	render := func(cfg Config) string {
		var buf bytes.Buffer
		if err := runAll(&buf, false, cfg, runners); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := render(Config{Workers: 1})
	if got := render(Config{Workers: 8}); got != want {
		t.Error("shared-pool output differs between worker counts")
	}
	warm := cache.New(0)
	if got := render(Config{Workers: 8, Cache: warm}); got != want {
		t.Error("shared-pool output differs with a cold cache")
	}
	if got := render(Config{Workers: 3, Cache: warm}); got != want {
		t.Error("shared-pool output differs with a warm cache")
	}
	if s := warm.Stats(); s.Hits == 0 {
		t.Errorf("warm RunAllCfg re-run hit the cache 0 times: %+v", s)
	}
}
