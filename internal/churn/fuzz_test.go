package churn

import "testing"

// FuzzChurnSpec checks ParseSpec never panics, and that every accepted spec
// survives a String round trip: re-parsing the printed form gives an equal
// spec that prints the same way.
func FuzzChurnSpec(f *testing.F) {
	f.Add("")
	f.Add("rate=50000,hold=2000,hard=0.2,firm=0.4,fbud=0.5,bbud=0.3,pmin=50,pmax=400,smax=2,seed=9")
	f.Add("rate=100000,hold=1000")
	f.Add("rate=1,hold=1,rate=2")
	f.Add("rate=1e5,hold=-0,hold=5")
	f.Add("rate=x")
	f.Add("pmin=1.5")
	f.Add("bogus=1")
	f.Add(",,,")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("String() %q of accepted spec %q does not re-parse: %v", s.String(), in, err)
		}
		if back != s {
			t.Fatalf("round trip of %q: %+v != %+v", in, back, s)
		}
		if back.String() != s.String() {
			t.Fatalf("round trip of %q prints %q, want %q", in, back.String(), s.String())
		}
	})
}
