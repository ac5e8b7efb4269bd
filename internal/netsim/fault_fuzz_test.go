package netsim

import (
	"reflect"
	"testing"
)

// FuzzNetFaultPlanParse: any plan the parser accepts renders back into
// the grammar, and re-parsing the rendering gives an equal plan — the
// -net-faults flag and the "net_faults" config key round-trip. The seed
// corpus is under testdata/fuzz.
func FuzzNetFaultPlanParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		plan, err := ParseFaultPlan(s)
		if err != nil || plan == nil {
			return
		}
		out := plan.String()
		again, err := ParseFaultPlan(out)
		if err != nil {
			t.Fatalf("parsed %q but re-parse of rendering %q failed: %v", s, out, err)
		}
		if !reflect.DeepEqual(plan, again) {
			t.Fatalf("round trip changed the plan:\n in: %q -> %+v\nout: %q -> %+v", s, plan, out, again)
		}
	})
}
