package trace

import (
	"strings"
	"testing"
)

// FuzzPromRoundTrip drives arbitrary metric values — counters, gauges
// and histograms — through WriteProm and back through ParsePromText,
// requiring every series to be recovered exactly. This is the property behind the "one snapshot
// path" contract: if the exposition writer and the strict mini-parser
// ever disagree on formatting (escaping, label blocks, float renders),
// the scrape smoke check would silently validate the wrong numbers.
func FuzzPromRoundTrip(f *testing.F) {
	f.Add(int64(1), []byte{1, 2, 3})
	f.Add(int64(42), []byte{})
	f.Add(int64(-7), []byte{255, 0, 128, 7, 9, 200, 31, 64})
	f.Add(int64(1<<62), []byte{0})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		rnd := uint64(seed)
		next := func() uint64 { rnd = splitmixTrace(rnd); return rnd }

		reg := NewRegistry()
		cVal := int64(next() % (1 << 40))
		gVal := int64(next()%(1<<40)) - (1 << 39)
		reg.Counter("fz_requests_total").Add(cVal)
		reg.Gauge("fz_depth").Set(gVal)
		reg.SetHelp("fz_depth", `fuzzed gauge with "quotes" and \ backslash`)
		h := reg.Histogram("fz_bytes")
		var hSum int64
		for _, b := range raw {
			v := int64(b) << (b % 13)
			h.Observe(v)
			hSum += v
		}

		var buf strings.Builder
		if err := reg.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		pm, err := ParsePromText(buf.String())
		if err != nil {
			t.Fatalf("round-trip parse: %v\nexposition:\n%s", err, buf.String())
		}

		check := func(name string, want float64) {
			t.Helper()
			got, ok := pm.Value(name)
			if !ok {
				t.Fatalf("series %s lost in round-trip\nexposition:\n%s", name, buf.String())
			}
			if got != want {
				t.Fatalf("series %s = %v after round-trip, want %v", name, got, want)
			}
		}
		check("fz_requests_total", float64(cVal))
		check("fz_depth", float64(gVal))
		check("fz_bytes_count", float64(len(raw)))
		check("fz_bytes_sum", float64(hSum))
		check(`fz_bytes_bucket{le="+Inf"}`, float64(len(raw)))
	})
}
