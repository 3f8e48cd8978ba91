package experiment

import (
	"bytes"
	"testing"
	"time"

	"p2psplice/internal/trace"
	"p2psplice/internal/tracereport"
)

// renderTraceReport runs the churn figure with the given worker count,
// analyzes its trace directory, and returns every serialized form of the
// report (JSON, table, stall CDF) plus the trace-derived windowed time
// series as CSV (splicetrace timeseries -csv). Every emulation series
// must be registered, and all but the stall series must be observed.
func renderTraceReport(t *testing.T, workers int) (json, table, cdf, tsCSV string) {
	t.Helper()
	p := tracedParams()
	p.TraceDir = t.TempDir()
	p.Workers = workers
	if _, err := p.FigChurn(nil); err != nil {
		t.Fatal(err)
	}
	a, err := tracereport.AnalyzeDir(p.TraceDir)
	if err != nil {
		t.Fatal(err)
	}
	var j, tb, c, ts bytes.Buffer
	if err := tracereport.WriteJSON(&j, a.Report); err != nil {
		t.Fatal(err)
	}
	if err := tracereport.WriteTable(&tb, a.Report); err != nil {
		t.Fatal(err)
	}
	if err := tracereport.WriteCDF(&c, "stall", a.StallUS); err != nil {
		t.Fatal(err)
	}
	snap, err := tracereport.BuildTimeSeriesDir(p.TraceDir, tracereport.TimeSeriesOptions{
		Window:     time.Second,
		MaxWindows: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteCSV(&ts); err != nil {
		t.Fatal(err)
	}

	byName := map[string]trace.TSSeriesStat{}
	for _, s := range snap.Series {
		byName[s.Name] = s
	}
	for _, name := range []string{
		trace.TSBufferOccupancyUS,
		trace.TSPoolTargetK,
		trace.TSInflightFlows,
		trace.TSSegmentsCompleted,
	} {
		if s, ok := byName[name]; !ok || s.Total() == 0 {
			t.Errorf("series %s has no observations across the sweep (present=%v)", name, ok)
		}
	}
	// Stall series exist even if a sweep happens to stall rarely.
	for _, name := range []string{trace.TSStalledPeers, trace.TSStallFractionPermille} {
		if _, ok := byName[name]; !ok {
			t.Errorf("series %s not registered", name)
		}
	}
	return j.String(), tb.String(), c.String(), ts.String()
}

// The trace-dir report (cmd/experiment's report.json, splicetrace's
// output) and the time series derived from the same traces must be
// byte-identical across repeated runs and across -workers values.
func TestTraceReportIdenticalAcrossWorkers(t *testing.T) {
	jSerial, tSerial, cSerial, sSerial := renderTraceReport(t, 1)
	jSerial2, tSerial2, cSerial2, sSerial2 := renderTraceReport(t, 1)
	if jSerial != jSerial2 || tSerial != tSerial2 || cSerial != cSerial2 || sSerial != sSerial2 {
		t.Fatal("serial trace report not reproducible across runs")
	}
	jPar, tPar, cPar, sPar := renderTraceReport(t, 4)
	if jSerial != jPar {
		t.Errorf("report.json differs between workers=1 and workers=4:\n--- serial ---\n%s\n--- parallel ---\n%s", jSerial, jPar)
	}
	if tSerial != tPar {
		t.Error("report table differs between workers=1 and workers=4")
	}
	if cSerial != cPar {
		t.Error("stall CDF differs between workers=1 and workers=4")
	}
	if sSerial != sPar {
		t.Error("time-series CSV differs between workers=1 and workers=4")
	}
}

// The churn figure injects faults, so its trace dir must both contain
// stalls and attribute every one of them (the acceptance criterion).
func TestChurnTraceReportFullyAttributed(t *testing.T) {
	p := tracedParams()
	p.TraceDir = t.TempDir()
	if _, err := p.FigChurn(nil); err != nil {
		t.Fatal(err)
	}
	a, err := tracereport.AnalyzeDir(p.TraceDir)
	if err != nil {
		t.Fatal(err)
	}
	r := a.Report
	if r.Stalls.Count == 0 {
		t.Fatal("churn figure traced no stalls; attribution untested")
	}
	if r.Stalls.Attributed != r.Stalls.Count {
		t.Errorf("%d of %d stalls unattributed", r.Stalls.Count-r.Stalls.Attributed, r.Stalls.Count)
	}
	if r.Stalls.AttributedPct != 100 {
		t.Errorf("attributed pct = %v, want 100", r.Stalls.AttributedPct)
	}
	if len(r.Causes) == 0 {
		t.Error("no cause breakdown rows")
	}
}

// renderAdversaryReport runs the adversary figure with the given worker
// count and returns the serialized trace report.
func renderAdversaryReport(t *testing.T, workers int) (json, table string) {
	t.Helper()
	p := tracedParams()
	p.TraceDir = t.TempDir()
	p.Workers = workers
	if _, err := p.FigAdversary(nil); err != nil {
		t.Fatal(err)
	}
	a, err := tracereport.AnalyzeDir(p.TraceDir)
	if err != nil {
		t.Fatal(err)
	}
	var j, tb bytes.Buffer
	if err := tracereport.WriteJSON(&j, a.Report); err != nil {
		t.Fatal(err)
	}
	if err := tracereport.WriteTable(&tb, a.Report); err != nil {
		t.Fatal(err)
	}
	return j.String(), tb.String()
}

// The adversary figure's trace report — including the per-peer
// reputation rollup — must be byte-identical across -workers values.
func TestAdversaryTraceReportIdenticalAcrossWorkers(t *testing.T) {
	jSerial, tSerial := renderAdversaryReport(t, 1)
	jPar, tPar := renderAdversaryReport(t, 4)
	if jSerial != jPar {
		t.Errorf("adversary report.json differs between workers=1 and workers=4:\n--- serial ---\n%s\n--- parallel ---\n%s", jSerial, jPar)
	}
	if tSerial != tPar {
		t.Error("adversary report table differs between workers=1 and workers=4")
	}
}

// The adversary figure quarantines polluters, so its trace dir must show
// reputation rollup rows, and every stall — peer_quarantined included —
// must be attributed (the acceptance criterion).
func TestAdversaryTraceReportReputationAndAttribution(t *testing.T) {
	p := tracedParams()
	p.TraceDir = t.TempDir()
	if _, err := p.FigAdversary(nil); err != nil {
		t.Fatal(err)
	}
	a, err := tracereport.AnalyzeDir(p.TraceDir)
	if err != nil {
		t.Fatal(err)
	}
	r := a.Report
	if len(r.Reputation) == 0 {
		t.Fatal("adversary figure traced no reputation rows")
	}
	var quarantines, quarUS int64
	for _, rp := range r.Reputation {
		quarantines += rp.Quarantines
		quarUS += rp.QuarantineUS
	}
	if quarantines == 0 || quarUS == 0 {
		t.Errorf("rollup shows %d quarantines over %dus; polluters should have been banned", quarantines, quarUS)
	}
	if r.Stalls.Attributed != r.Stalls.Count {
		t.Errorf("%d of %d stalls unattributed", r.Stalls.Count-r.Stalls.Attributed, r.Stalls.Count)
	}
}
