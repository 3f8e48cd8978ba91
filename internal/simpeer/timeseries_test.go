package simpeer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"p2psplice/internal/splicer"
	"p2psplice/internal/trace"
	"p2psplice/internal/tracereport"
)

// coherentSeriesSHA256 is the SHA-256 of the JSON-encoded windowed
// time-series snapshot of the TestTimeSeriesCoherent run, as recorded by
// the in-process recorder simpeer carried until the series became
// trace-derived only (commit b47bcf9). The trace-derived builder matched
// that recorder bit for bit, so pinning the hash keeps the proof that
// deriving the series from events did not move a single window.
const coherentSeriesSHA256 = "201bd5f048c2bfa22788e1e129907491770a90c136e733e52d299b91d08304c6"

// TestTimeSeriesCoherent rebuilds the windowed series from a seeded
// run's trace, round-tripped through JSONL so the builder sees the
// serialization's microsecond resolution rather than in-memory events,
// and requires the snapshot to hash to the pinned in-process recording.
func TestTimeSeriesCoherent(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, time.Minute, 2)
	cfg := baseConfig(128 * 1024)
	cfg.Seed = 7
	cfg.LossRate = 0.1
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	if _, err := RunSwarm(cfg, segs); err != nil {
		t.Fatal(err)
	}

	var jsonl bytes.Buffer
	if err := trace.WriteJSONL(&jsonl, buf.Events()); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(&jsonl)
	if err != nil {
		t.Fatal(err)
	}

	b := tracereport.NewTimeSeriesBuilder(tracereport.TimeSeriesOptions{
		Window:     time.Second,
		MaxWindows: 512,
		Peers:      cfg.Leechers,
	})
	b.AddEvents(events)
	snap := b.Snap()

	var hasObs bool
	for _, s := range snap.Series {
		if s.Total() > 0 {
			hasObs = true
		}
	}
	if !hasObs {
		t.Fatal("run produced no time-series observations")
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != coherentSeriesSHA256 {
		t.Fatalf("trace-derived time series hash = %s, want %s (the pinned in-process recording)", got, coherentSeriesSHA256)
	}
}
