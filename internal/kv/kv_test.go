package kv

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// spec is a stand-in for the fault, churn and mode specs: one field of each
// scalar type plus a repeatable custom key.
type spec struct {
	F    float64
	I    int
	I64  int64
	U64  uint64
	List []string
}

func (s *spec) fields() []Field {
	return []Field{
		{Key: "f", Ptr: &s.F},
		{Key: "i", Ptr: &s.I},
		{Key: "list", Parse: func(val string) error {
			if val == "" {
				return errors.New("list entry empty")
			}
			s.List = append(s.List, val)
			return nil
		}, Format: func() []string { return s.List }},
		{Key: "i64", Ptr: &s.I64},
		{Key: "u64", Ptr: &s.U64},
	}
}

func TestParseFormat(t *testing.T) {
	cases := []struct {
		name, in string
		want     spec
		wantErr  string // substring; "" = accepted
		printed  string
	}{
		{name: "blank", in: "  ", printed: ""},
		{name: "all fields", in: "u64=9,f=0.25,list=a,i=-3,i64=1099511627776",
			want:    spec{F: 0.25, I: -3, I64: 1 << 40, U64: 9, List: []string{"a"}},
			printed: "f=0.25,i=-3,list=a,i64=1099511627776,u64=9"},
		{name: "blank entries and spaces", in: " , f=1 ,,", want: spec{F: 1}, printed: "f=1"},
		{name: "repeated scalar keeps last", in: "i=1,i=2,f=3,f=0.5", want: spec{I: 2, F: 0.5}, printed: "f=0.5,i=2"},
		{name: "repeated custom appends", in: "list=a,list=b,list=a", want: spec{List: []string{"a", "b", "a"}},
			printed: "list=a,list=b,list=a"},
		{name: "zeros left out", in: "f=0,i=0,i64=0,u64=0,f=-0", want: spec{}, printed: ""},
		{name: "not key=value", in: "f=1,oops", wantErr: `test: "oops" is not key=value`},
		{name: "unknown key", in: "g=1", wantErr: `test: unknown key "g"`},
		{name: "key is not trimmed inside the entry", in: "f =1", wantErr: `test: unknown key "f "`},
		{name: "bad float", in: "f=one", wantErr: `test: f: strconv.ParseFloat: parsing "one": invalid syntax`},
		{name: "bad int", in: "i=1.5", wantErr: `test: i: strconv.Atoi: parsing "1.5": invalid syntax`},
		{name: "bad int64", in: "i64=x", wantErr: `test: i64: strconv.ParseInt: parsing "x": invalid syntax`},
		{name: "negative uint64", in: "u64=-1", wantErr: `test: u64: strconv.ParseUint: parsing "-1": invalid syntax`},
		{name: "custom error carries prefix only", in: "list=", wantErr: "test: list entry empty"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var s spec
			err := Parse("test", c.in, s.fields(), func() error { return nil })
			if c.wantErr != "" {
				if err == nil || err.Error() != c.wantErr {
					t.Fatalf("Parse(%q) error %v, want %q", c.in, err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse(%q): %v", c.in, err)
			}
			if !reflect.DeepEqual(s, c.want) {
				t.Fatalf("Parse(%q) = %+v, want %+v", c.in, s, c.want)
			}
			if got := Format(s.fields()); got != c.printed {
				t.Fatalf("Format after Parse(%q) = %q, want %q", c.in, got, c.printed)
			}
		})
	}
}

// TestValidateRuns: validate runs after a successful parse and its error is
// returned as is; a blank spec skips it.
func TestValidateRuns(t *testing.T) {
	var s spec
	bad := errors.New("test: i must be positive")
	validate := func() error {
		if s.I <= 0 {
			return bad
		}
		return nil
	}
	if err := Parse("test", "", s.fields(), validate); err != nil {
		t.Fatalf("blank spec validated: %v", err)
	}
	if err := Parse("test", ",", s.fields(), validate); err != bad {
		t.Fatalf("non-blank spec: error %v, want %v", err, bad)
	}
	if err := Parse("test", "i=2", s.fields(), validate); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Format(s.fields()), "i=2") {
		t.Fatalf("Format = %q", Format(s.fields()))
	}
}

// FuzzFormatRoundTrip: Parse never panics, and the printed form of any
// accepted spec re-parses to a spec that prints identically.
func FuzzFormatRoundTrip(f *testing.F) {
	f.Add("u64=9,f=0.25,list=a,i=-3,i64=1099511627776")
	f.Add("list=a,list=b,f=NaN,f=-Inf")
	f.Add(" , i=1 ,,i=2")
	f.Add("f=1e-320,i64=-9223372036854775808")
	f.Add("oops")
	f.Fuzz(func(t *testing.T, in string) {
		var s spec
		if err := Parse("test", in, s.fields(), func() error { return nil }); err != nil {
			return
		}
		printed := Format(s.fields())
		var back spec
		if err := Parse("test", printed, back.fields(), func() error { return nil }); err != nil {
			t.Fatalf("printed form %q of accepted %q does not re-parse: %v", printed, in, err)
		}
		if again := Format(back.fields()); again != printed {
			t.Fatalf("round trip of %q prints %q, want %q", in, again, printed)
		}
	})
}
