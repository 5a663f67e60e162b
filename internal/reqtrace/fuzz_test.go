package reqtrace

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent feeds arbitrary header values to the parser. It
// must never panic; a value it accepts must carry non-zero IDs that
// survive a FormatTraceparent → ParseTraceparent round trip unchanged.
func FuzzParseTraceparent(f *testing.F) {
	id := TraceID{Hi: 0xdeadbeef, Lo: 0x12345678}
	sp := SpanID(0xabcdef01)
	for _, seed := range []string{
		FormatTraceparent(id, sp),
		"",
		"00-abc-def-01",
		"01-" + id.String() + "-" + sp.String() + "-01",
		"00-" + strings.Repeat("0", 32) + "-" + sp.String() + "-01",
		"00-" + id.String() + "-" + strings.Repeat("0", 16) + "-01",
		"00-" + id.String() + "-" + sp.String() + "-zz",
		"00-" + strings.Repeat("g", 32) + "-" + sp.String() + "-01",
		"00-" + id.String() + "-" + sp.String(),
		"00-" + id.String() + "-" + sp.String() + "-01-extra",
		"00-" + id.String()[:31] + "-" + sp.String() + "-01",
		" 00-" + strings.ToUpper(id.String()) + "-" + sp.String() + "-FF ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		gotID, gotSpan, err := ParseTraceparent(v)
		if err != nil {
			return
		}
		if gotID.IsZero() || gotSpan == 0 {
			t.Fatalf("ParseTraceparent(%q) accepted a zero ID: %v/%v", v, gotID, gotSpan)
		}
		again, againSpan, err := ParseTraceparent(FormatTraceparent(gotID, gotSpan))
		if err != nil {
			t.Fatalf("re-parsing the formatted %q: %v", v, err)
		}
		if again != gotID || againSpan != gotSpan {
			t.Fatalf("round trip of %q: %v/%v, want %v/%v", v, again, againSpan, gotID, gotSpan)
		}
	})
}
