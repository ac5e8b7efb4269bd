package fsim

import "testing"

// The recovery-spec parsers back the -inject/-retry flags and their
// config keys: whatever they accept must validate. Seed corpora are
// under testdata/fuzz.

func FuzzParseInjectSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseInjectSpec(s)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseInjectSpec(%q) accepted an invalid spec: %v", s, err)
		}
	})
}

func FuzzParseRetrySpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseRetrySpec(s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParseRetrySpec(%q) accepted an invalid policy: %v", s, err)
		}
	})
}

func FuzzParseOpMask(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseOpMask(s)
		if err != nil {
			return
		}
		if err := (InjectSpec{Ops: m}).Validate(); err != nil {
			t.Fatalf("ParseOpMask(%q) = %b, which does not validate: %v", s, m, err)
		}
	})
}
