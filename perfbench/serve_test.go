package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
)

// The load generator's discipline: the sequence is generated up front from
// the seed with a fixed count, it records hit or miss per point query, the
// repeat share stays at 3/4, and the client holds one connection.

func TestPlanFixedBySeed(t *testing.T) {
	const n = 5000
	a, b := planServe(3, n), planServe(3, n)
	if len(a.requests) != n {
		t.Fatalf("planned %d requests, want exactly %d", len(a.requests), n)
	}
	if !reflect.DeepEqual(a.requests, b.requests) || !reflect.DeepEqual(a.queries, b.queries) {
		t.Fatal("the same seed planned different sequences")
	}
	if reflect.DeepEqual(a.requests, planServe(4, n).requests) {
		t.Fatal("a different seed planned the same sequence")
	}
}

func TestPlanRecordsHitsAndMisses(t *testing.T) {
	p := planServe(5, 40000)
	held := map[cache.Key]bool{}
	for _, q := range p.queries[:p.warm] {
		held[q.key()] = true
	}
	hits, points, sweeps := 0, 0, 0
	sweepBody := ""
	for i, r := range p.requests {
		switch r.Class {
		case classHit, classMiss:
			points++
			k := p.queries[r.Query].key()
			if (r.Class == classHit) != held[k] {
				t.Fatalf("request %d is marked %s but the daemon %s its key", i, r.Class,
					map[bool]string{true: "holds", false: "does not hold"}[held[k]])
			}
			if r.Class == classHit {
				hits++
			}
			held[k] = true
		case classSweep:
			if sweeps > 0 && r.Body != sweepBody {
				t.Fatalf("request %d: sweep body %s differs from the first, %s", i, r.Body, sweepBody)
			}
			sweeps++
			sweepBody = r.Body
		}
	}
	if hits != p.hits {
		t.Fatalf("counted %d hits, plan says %d", hits, p.hits)
	}
	if share := float64(hits) / float64(points); share < 0.73 || share > 0.77 {
		t.Fatalf("repeat share %.3f, want 3/4", share)
	}
	if sweeps == 0 {
		t.Fatal("no sweep requests in the mix")
	}
	if want := (sweeps - 1) * sweepCells(); p.sweepHits != want {
		t.Fatalf("plan expects %d sweep cache hits, want %d", p.sweepHits, want)
	}
}

func TestClientHoldsOneConnection(t *testing.T) {
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte(`{"elapsed_ms":0.01}`))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	dir := t.TempDir()
	plan := planServe(1, 200)
	reqFile, outFile := filepath.Join(dir, "requests.jsonl"), filepath.Join(dir, "out.json")
	if err := plan.writeRequests(reqFile); err != nil {
		t.Fatal(err)
	}
	if err := childClient(srv.URL, reqFile, outFile, true); err != nil {
		t.Fatal(err)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("client opened %d connections, want 1", n)
	}
	b, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	var res clientResult
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Status) != 200 || len(res.Spans) != 400 {
		t.Fatalf("client recorded %d responses and %d spans, want 200 and 400", len(res.Status), len(res.Spans))
	}
}
