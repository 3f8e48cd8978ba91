package experiment

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"p2psplice/internal/trace"
	"p2psplice/internal/tracereport"
)

// TestTimeSeriesIdenticalAcrossWorkers proves the windowed time series
// derived from a sweep's trace directory is bit-identical whatever the
// worker count — the windows are exact integer aggregates over
// virtual-time events, so parallel cell execution cannot perturb them.
// The CSV render is compared too: one read path feeds every export, so
// byte-level stability follows snapshot equality.
func TestTimeSeriesIdenticalAcrossWorkers(t *testing.T) {
	snaps := make([]trace.TSSnapshot, 0, 2)
	for _, workers := range []int{1, 2} {
		p := tracedParams()
		p.Workers = workers
		p.TraceDir = t.TempDir()
		if _, err := p.Fig2Stalls([]int64{128}); err != nil {
			t.Fatal(err)
		}
		snap, err := tracereport.BuildTimeSeriesDir(p.TraceDir, tracereport.TimeSeriesOptions{
			Window:     time.Second,
			MaxWindows: 512,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Series) == 0 {
			t.Fatalf("workers=%d: trace dir yielded no time series", workers)
		}
		snaps = append(snaps, snap)
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Fatal("time-series snapshot differs across worker counts")
	}
	var a, b bytes.Buffer
	if err := snaps[0].WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := snaps[1].WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("time-series CSV differs across worker counts")
	}
}
