package chaos

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// mute redirects the injector's fault log and neuters exit/sleep for tests.
func mute(inj *Injector) *bytes.Buffer {
	var buf bytes.Buffer
	inj.logw = &buf
	inj.sleep = func(time.Duration) {}
	inj.exit = func(code int) { panic("unexpected exit") }
	return &buf
}

// TestDeterministicSchedule pins the determinism contract: two injectors
// built from the same spec produce the identical fault sequence for the
// identical invocation sequence.
func TestDeterministicSchedule(t *testing.T) {
	const spec = "seed=7,every=3,kinds=err+short+latency,sites=cache.save"
	a, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	mute(a)
	mute(b)
	sites := []string{"cache.save.write", "cache.save.sync", "cache.save.rename"}
	var fired int
	for i := 0; i < 300; i++ {
		site := sites[i%len(sites)]
		ka, kb := a.Fault(site), b.Fault(site)
		if ka != kb {
			t.Fatalf("invocation %d at %s: %v != %v", i, site, ka, kb)
		}
		if ka != None {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("every=3 over 300 invocations injected nothing")
	}
	if a.Injected() != b.Injected() {
		t.Fatalf("injected counts diverge: %d != %d", a.Injected(), b.Injected())
	}
}

// TestSiteFilter: sites outside the configured prefixes never fault, and
// their invocations do not shift the schedule of sites inside.
func TestSiteFilter(t *testing.T) {
	inj, err := Parse("seed=1,every=2,sites=cache.save")
	if err != nil {
		t.Fatal(err)
	}
	mute(inj)
	for i := 0; i < 200; i++ {
		if k := inj.Fault("cache.journal.append"); k != None {
			t.Fatalf("filtered site faulted with %v", k)
		}
	}

	// Interleaving a filtered site must not change an included site's
	// schedule: counters are per site.
	plain, _ := Parse("seed=1,every=2,sites=cache.save")
	mute(plain)
	mixed, _ := Parse("seed=1,every=2,sites=cache.save")
	mute(mixed)
	for i := 0; i < 100; i++ {
		kp := plain.Fault("cache.save.write")
		mixed.Fault("cache.journal.append")
		km := mixed.Fault("cache.save.write")
		if kp != km {
			t.Fatalf("invocation %d: interleaved filtered site shifted the schedule: %v != %v", i, kp, km)
		}
	}
}

// TestCrashAt: the crash fires at exactly the configured invocation,
// through the exit seam, regardless of every/kinds.
func TestCrashAt(t *testing.T) {
	inj, err := Parse("crashat=cache.save.write:3")
	if err != nil {
		t.Fatal(err)
	}
	log := mute(inj)
	exited := -1
	inj.exit = func(code int) { exited = code; panic("exit") }
	for i := 1; i <= 2; i++ {
		if k := inj.Fault("cache.save.write"); k != None {
			t.Fatalf("invocation %d faulted early: %v", i, k)
		}
	}
	func() {
		defer func() { recover() }()
		inj.Fault("cache.save.write")
	}()
	if exited != 137 {
		t.Fatalf("exit code = %d, want 137", exited)
	}
	if !strings.Contains(log.String(), "crash at cache.save.write invocation 3") {
		t.Fatalf("crash not logged: %q", log.String())
	}
}

// TestWriter: Err faults lose the whole write, Short faults write exactly
// half then error (the torn record), and both wrap ErrInjected.
func TestWriter(t *testing.T) {
	inj, err := Parse("seed=0,every=1,kinds=short")
	if err != nil {
		t.Fatal(err)
	}
	mute(inj)
	var sink bytes.Buffer
	w := inj.Writer("x", &sink)
	p := []byte("0123456789")
	n, werr := w.Write(p)
	if !errors.Is(werr, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", werr)
	}
	if n != len(p)/2 || sink.Len() != len(p)/2 {
		t.Fatalf("short write wrote %d bytes (sink %d), want %d", n, sink.Len(), len(p)/2)
	}

	inj2, _ := Parse("seed=0,every=1,kinds=err")
	mute(inj2)
	sink.Reset()
	if _, werr := inj2.Writer("x", &sink).Write(p); !errors.Is(werr, ErrInjected) {
		t.Fatalf("err kind: %v, want ErrInjected", werr)
	}
	if sink.Len() != 0 {
		t.Fatalf("err kind wrote %d bytes, want 0", sink.Len())
	}
}

// TestNilInjector: every method of a nil injector is a no-op.
func TestNilInjector(t *testing.T) {
	var inj *Injector
	if k := inj.Fault("any"); k != None {
		t.Fatalf("nil Fault = %v", k)
	}
	if err := inj.Fail("any"); err != nil {
		t.Fatalf("nil Fail = %v", err)
	}
	if got := inj.Injected(); got != 0 {
		t.Fatalf("nil Injected = %d", got)
	}
	var sink bytes.Buffer
	if w := inj.Writer("any", &sink); w != io.Writer(&sink) {
		t.Fatal("nil Writer must return the underlying writer unchanged")
	}
}

// TestParseErrors: malformed specs are rejected with an error, not a
// silently disabled injector.
func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",
		"every=x",
		"seed=-1",
		"kinds=explode",
		"crashat=nocolon",
		"crashat=site:0",
		"unknown=1",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
	// The empty spec is the explicit disabled injector.
	inj, err := Parse("")
	if err != nil {
		t.Fatalf("Parse(\"\") = %v", err)
	}
	mute(inj)
	if k := inj.Fault("x"); k != None {
		t.Fatalf("empty spec faulted: %v", k)
	}
}

// FuzzChaosParse: rvserved's -chaos spec is an external input. Parse must
// never panic; a spec it accepts gives an injector whose counts start at
// zero and whose first faults are the pure decision function's.
func FuzzChaosParse(f *testing.F) {
	for _, spec := range []string{
		"",
		"seed=7,every=3,kinds=err+short+latency,sites=cache.save",
		"crashat=cache.journal.append:2",
		"every=1,kinds=crash,sites=|cache",
		" seed=18446744073709551615 , every=0 ,",
		"kinds=,every=2",
		"crashat=:1",
		"seed=1=2",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		inj, err := Parse(spec)
		if err != nil {
			if inj != nil {
				t.Fatalf("Parse(%q) returned an injector with error %v", spec, err)
			}
			return
		}
		if n := inj.Injected(); n != 0 || len(inj.counts) != 0 {
			t.Fatalf("Parse(%q): injected %d, counts %v before any invocation", spec, n, inj.counts)
		}
		mute(inj)
		inj.exit = func(int) {}
		calls := map[string]uint64{}
		for _, site := range []string{"cache.save.write", "cache.journal.append", inj.crSite, inj.crSite} {
			calls[site]++
			want := inj.decide(site, calls[site])
			if got := inj.Fault(site); got != want && !(want == Latency && got == None) {
				t.Fatalf("Parse(%q): Fault(%q) call %d = %v, decide says %v", spec, site, calls[site], got, want)
			}
		}
	})
}
