// Zero-allocation tests for the //lint:hotpath contract on the QoE
// recording path. Excluded under -race because race instrumentation
// inserts allocations the production build does not have.

//go:build !race

package trace

import (
	"testing"
	"time"
)

// TestZeroAllocObserve pins Histogram.Observe and ObserveDuration at
// zero heap allocations per observation, nil handles included.
func TestZeroAllocObserve(t *testing.T) {
	h := Histogram{h: &histState{scale: 1e-6}}
	var noop Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
		h.ObserveDuration(5 * time.Millisecond)
		noop.Observe(1)
	})
	if allocs != 0 {
		t.Errorf("Observe allocated %.1f times per call, want 0", allocs)
	}
	if h.Count() != 2002 { // 1001 runs (warm-up included) x 2 live observations
		t.Errorf("count %d after allocation test, want 2002", h.Count())
	}
}

// BenchmarkHotpathHistogramObserve is the -benchmem gate for the QoE
// recording path: `make bench-alloc` fails if it reports nonzero
// allocs/op.
func BenchmarkHotpathHistogramObserve(b *testing.B) {
	h := Histogram{h: &histState{scale: 1e-6}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// TestZeroAllocTimeSeriesObserve pins the TimeSeries observe paths —
// counter, gauge, and per-window histogram, nil handles included — at
// zero heap allocations per observation.
func TestZeroAllocTimeSeriesObserve(t *testing.T) {
	ts := NewTimeSeries(TimeSeriesConfig{Window: time.Second, MaxWindows: 64})
	c := ts.Counter("c")
	g := ts.Gauge("g")
	h := ts.Histogram("h")
	var noopC TSCounter
	var noopG TSGauge
	var noopH TSHist
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc(3 * time.Second)
		g.Observe(5*time.Second, 123)
		h.Observe(7*time.Second, 456)
		noopC.Inc(0)
		noopG.Observe(0, 1)
		noopH.Observe(0, 1)
	})
	if allocs != 0 {
		t.Errorf("TimeSeries observe allocated %.1f times per call, want 0", allocs)
	}
}

// TestZeroAllocSamplerKeep pins the sampler's admission decision at
// zero allocations — it runs on every emitted event in sampled runs.
func TestZeroAllocSamplerKeep(t *testing.T) {
	s := NewHashSampler(42, 0.5, map[string]float64{CatPlayer: 1})
	ev := Event{At: time.Second, Peer: 9, Seg: 4, Cat: CatFlow, Name: EvFlowComplete}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Keep(ev)
	})
	if allocs != 0 {
		t.Errorf("Keep allocated %.1f times per call, want 0", allocs)
	}
}

// BenchmarkHotpathTimeSeriesObserve is the -benchmem gate for the
// windowed observe path.
func BenchmarkHotpathTimeSeriesObserve(b *testing.B) {
	ts := NewTimeSeries(TimeSeriesConfig{Window: time.Second, MaxWindows: 256})
	g := ts.Gauge("g")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Observe(time.Duration(i%200)*time.Second, int64(i))
	}
}

// BenchmarkHotpathTimeSeriesHistObserve gates the bucketed variant.
func BenchmarkHotpathTimeSeriesHistObserve(b *testing.B) {
	ts := NewTimeSeries(TimeSeriesConfig{Window: time.Second, MaxWindows: 256})
	h := ts.Histogram("h")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%200)*time.Second, int64(i))
	}
}

// BenchmarkHotpathSamplerKeep gates the sampling decision.
func BenchmarkHotpathSamplerKeep(b *testing.B) {
	s := NewHashSampler(42, 0.5, nil)
	ev := Event{At: time.Second, Peer: 9, Seg: 4, Cat: CatFlow, Name: EvFlowComplete}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Peer = i
		s.Keep(ev)
	}
}
