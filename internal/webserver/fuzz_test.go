package webserver

import (
	"bufio"
	"strings"
	"testing"

	"repro/internal/vm"
)

// FuzzParseRequest hardens the wire parser: arbitrary bytes must parse or
// fail cleanly, and parsed requests must be internally consistent.
func FuzzParseRequest(f *testing.F) {
	f.Add("GET /file.jpg HTTP/1.0\r\n\r\n")
	f.Add("POST /x HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello")
	f.Add("PUT /y HTTP/1.0\r\n\r\n")
	f.Add("\r\n")
	f.Add("GET")
	f.Fuzz(func(t *testing.T, raw string) {
		rt := vm.MustNew(vm.DefaultConfig(), nil)
		req, err := parseRequest(bufio.NewReader(strings.NewReader(raw)), rt)
		if err != nil {
			return
		}
		if req.kind == "" {
			t.Fatal("parsed request has empty method")
		}
		if req.kind != KindPost && len(req.body) != 0 {
			t.Fatalf("non-POST carries a %d-byte body", len(req.body))
		}
	})
}

// FuzzParseShedPolicy: any policy the -shed grammar accepts is valid,
// and its rendering re-parses to an equal policy. The seed corpus is
// under testdata/fuzz.
func FuzzParseShedPolicy(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseShedPolicy(s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParseShedPolicy(%q) accepted an invalid policy: %v", s, err)
		}
		again, err := ParseShedPolicy(p.String())
		if err != nil || again != p {
			t.Fatalf("round trip %q -> %q -> %+v (%v), want %+v", s, p.String(), again, err, p)
		}
	})
}
