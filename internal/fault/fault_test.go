package fault

import (
	"math"
	"testing"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"zero", Plan{}, true},
		{"probs", Plan{CollectionDropProb: 0.5, DistributionDropProb: 1, HandoverFailProb: 0}, true},
		{"coll out of range", Plan{CollectionDropProb: 1.5}, false},
		{"dist negative", Plan{DistributionDropProb: -0.1}, false},
		{"ho out of range", Plan{HandoverFailProb: 2}, false},
		{"coll NaN", Plan{CollectionDropProb: math.NaN()}, false},
		{"crash ok", Plan{Crashes: []Crash{{Node: 3, At: 100, Restart: 150}}}, true},
		{"crash permanent", Plan{Crashes: []Crash{{Node: 3, At: 100}}}, true},
		{"crash node out of ring", Plan{Crashes: []Crash{{Node: 8, At: 100}}}, false},
		{"crash node negative", Plan{Crashes: []Crash{{Node: -1, At: 100}}}, false},
		{"crash at zero", Plan{Crashes: []Crash{{Node: 1, At: 0}}}, false},
		{"restart before crash", Plan{Crashes: []Crash{{Node: 1, At: 100, Restart: 50}}}, false},
		{"restart equals crash", Plan{Crashes: []Crash{{Node: 1, At: 100, Restart: 100}}}, false},
		{"overlapping crashes", Plan{Crashes: []Crash{{Node: 1, At: 100, Restart: 200}, {Node: 1, At: 150, Restart: 300}}}, false},
		{"crash after permanent", Plan{Crashes: []Crash{{Node: 1, At: 100}, {Node: 1, At: 200}}}, false},
		{"sequential crashes", Plan{Crashes: []Crash{{Node: 1, At: 100, Restart: 150}, {Node: 1, At: 200, Restart: 250}}}, true},
		{"distinct nodes overlap fine", Plan{Crashes: []Crash{{Node: 1, At: 100, Restart: 300}, {Node: 2, At: 150, Restart: 250}}}, true},
	}
	for _, tc := range cases {
		err := tc.plan.Validate(8)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
}

func TestEnabled(t *testing.T) {
	if (&Plan{}).Enabled() {
		t.Error("zero plan reports enabled")
	}
	var nilPlan *Plan
	if nilPlan.Enabled() {
		t.Error("nil plan reports enabled")
	}
	for _, p := range []Plan{
		{CollectionDropProb: 0.1},
		{DistributionDropProb: 0.1},
		{HandoverFailProb: 0.1},
		{Crashes: []Crash{{Node: 1, At: 10}}},
	} {
		if !p.Enabled() {
			t.Errorf("plan %+v reports disabled", p)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, CollectionDropProb: 0.3, DistributionDropProb: 0.2, HandoverFailProb: 0.1}
	a, err := New(plan, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(plan, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if a.DropCollection() != b.DropCollection() ||
			a.DropDistribution() != b.DropDistribution() ||
			a.FailHandover() != b.FailHandover() {
			t.Fatalf("draw %d diverged between equal-seed injectors", i)
		}
	}
}

func TestInjectorCursors(t *testing.T) {
	plan := Plan{Crashes: []Crash{
		{Node: 2, At: 50, Restart: 80},
		{Node: 1, At: 10, Restart: 30},
		{Node: 3, At: 100},
	}}
	in, err := New(plan, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := in.NextCrash(5); ok {
		t.Fatal("crash before slot 10")
	}
	c, ok := in.NextCrash(10)
	if !ok || c.Node != 1 {
		t.Fatalf("expected node 1 crash at slot 10, got %+v ok=%v", c, ok)
	}
	if _, ok := in.NextCrash(10); ok {
		t.Fatal("second crash at slot 10")
	}
	// Catch-up: jumping past several scheduled slots pops them in order.
	c, ok = in.NextCrash(200)
	if !ok || c.Node != 2 {
		t.Fatalf("expected node 2 crash on catch-up, got %+v ok=%v", c, ok)
	}
	c, ok = in.NextCrash(200)
	if !ok || c.Node != 3 {
		t.Fatalf("expected node 3 crash on catch-up, got %+v ok=%v", c, ok)
	}
	if _, ok := in.NextCrash(1 << 40); ok {
		t.Fatal("crash schedule not exhausted")
	}
	r, ok := in.NextRestart(30)
	if !ok || r.Node != 1 {
		t.Fatalf("expected node 1 restart at slot 30, got %+v ok=%v", r, ok)
	}
	r, ok = in.NextRestart(90)
	if !ok || r.Node != 2 {
		t.Fatalf("expected node 2 restart by slot 90, got %+v ok=%v", r, ok)
	}
	if _, ok := in.NextRestart(1 << 40); ok {
		t.Fatal("permanent crash produced a restart")
	}
}

func TestInjectorZeroProbNoDraw(t *testing.T) {
	// With all probabilities zero the injector must never fire, whatever the
	// seed.
	in, err := New(Plan{Seed: 7}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if in.DropCollection() || in.DropDistribution() || in.FailHandover() {
			t.Fatal("zero-probability injector fired")
		}
	}
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("coll=0.01,dist=0.02,ho=0.005,crash=3@100+50,crash=5@400,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{
		Seed:                 9,
		CollectionDropProb:   0.01,
		DistributionDropProb: 0.02,
		HandoverFailProb:     0.005,
		Crashes:              []Crash{{Node: 3, At: 100, Restart: 150}, {Node: 5, At: 400}},
	}
	if p.Seed != want.Seed || p.CollectionDropProb != want.CollectionDropProb ||
		p.DistributionDropProb != want.DistributionDropProb || p.HandoverFailProb != want.HandoverFailProb ||
		len(p.Crashes) != len(want.Crashes) {
		t.Fatalf("got %+v, want %+v", p, want)
	}
	for i := range want.Crashes {
		if p.Crashes[i] != want.Crashes[i] {
			t.Fatalf("crash %d: got %+v, want %+v", i, p.Crashes[i], want.Crashes[i])
		}
	}
}

func TestParseSpecEmpty(t *testing.T) {
	p, err := ParseSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if p.Enabled() {
		t.Fatal("empty spec produced an enabled plan")
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",
		"unknown=1",
		"coll=abc",
		"coll=1.5",
		"crash=3",
		"crash=3@0",
		"crash=x@10",
		"crash=3@10+0",
		"crash=3@10+-5",
		"seed=-1",
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("spec %q: expected error", spec)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"",
		"coll=0.01",
		"coll=0.01,dist=0.02,ho=0.005,crash=3@100+50,crash=5@400,seed=9",
	} {
		p, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		p2, err := ParseSpec(p.Spec())
		if err != nil {
			t.Fatalf("%q → %q: %v", spec, p.Spec(), err)
		}
		if p.Spec() != p2.Spec() {
			t.Errorf("round trip diverged: %q vs %q", p.Spec(), p2.Spec())
		}
	}
}

func TestQueryAllocFree(t *testing.T) {
	in, err := New(Plan{Seed: 1, CollectionDropProb: 0.5, DistributionDropProb: 0.5, HandoverFailProb: 0.5,
		Crashes: []Crash{{Node: 1, At: 10, Restart: 20}}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		in.DropCollection()
		in.DropDistribution()
		in.FailHandover()
		in.NextCrash(5)
		in.NextRestart(5)
	})
	if allocs != 0 {
		t.Fatalf("injector queries allocate %v per call, want 0", allocs)
	}
}
