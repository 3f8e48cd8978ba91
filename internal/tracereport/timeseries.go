package tracereport

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"p2psplice/internal/trace"
)

// This file builds the emulation's windowed time series from trace
// events alone; it is the only producer of the sim_* series. It folds
// pool-fill args, player transitions and segment completions at their
// own timestamps, so a seeded run always yields the same snapshot
// (TestTimeSeriesCoherent pins its hash), and a trace directory written
// by the experiment runner yields the same byte-for-byte CSV on every
// rerun and worker count.

// TimeSeriesOptions configures the trace-derived builder.
type TimeSeriesOptions struct {
	// Window is the aggregation window (default 1s).
	Window time.Duration
	// MaxWindows bounds the windows per series (default 1024).
	MaxWindows int
	// Peers is the leecher count behind the stall-fraction series. Zero
	// infers it per file as the highest peer ID seen, which is exact for
	// runs where every leecher emits at least one event.
	Peers int
}

// TimeSeriesBuilder folds event logs into a TimeSeries.
type TimeSeriesBuilder struct {
	opts TimeSeriesOptions
	ts   *trace.TimeSeries
	s    struct {
		bufferedUS    trace.TSGauge
		poolTarget    trace.TSHist
		inflight      trace.TSGauge
		stalled       trace.TSGauge
		stallPermille trace.TSGauge
		segsDone      trace.TSCounter
	}
}

// NewTimeSeriesBuilder returns an empty builder with every emulation
// series registered, so snapshots list the full set even when a quiet
// run never observes one of them.
func NewTimeSeriesBuilder(opts TimeSeriesOptions) *TimeSeriesBuilder {
	b := &TimeSeriesBuilder{
		opts: opts,
		ts: trace.NewTimeSeries(trace.TimeSeriesConfig{
			Window:     opts.Window,
			MaxWindows: opts.MaxWindows,
		}),
	}
	b.s.bufferedUS = b.ts.Gauge(trace.TSBufferOccupancyUS)
	b.s.poolTarget = b.ts.Histogram(trace.TSPoolTargetK)
	b.s.inflight = b.ts.Gauge(trace.TSInflightFlows)
	b.s.stalled = b.ts.Gauge(trace.TSStalledPeers)
	b.s.stallPermille = b.ts.Gauge(trace.TSStallFractionPermille)
	b.s.segsDone = b.ts.Counter(trace.TSSegmentsCompleted)
	return b
}

// AddEvents folds one event log (one run's trace, in emission order).
// Stall state is tracked per log: each file is an independent swarm.
func (b *TimeSeriesBuilder) AddEvents(events []trace.Event) {
	peers := b.opts.Peers
	if peers == 0 {
		for _, ev := range events {
			if ev.Peer > peers {
				peers = ev.Peer
			}
		}
	}
	stalled := make(map[int]bool)
	stalledNow := 0
	observeStalled := func(at time.Duration) {
		b.s.stalled.Observe(at, int64(stalledNow))
		if peers > 0 {
			b.s.stallPermille.Observe(at, int64(stalledNow)*1000/int64(peers))
		}
	}
	for _, ev := range events {
		switch {
		case ev.Cat == trace.CatPool && ev.Name == trace.EvPoolFill:
			b.s.bufferedUS.Observe(ev.At, ev.ArgInt64("buffered_us", 0))
			b.s.poolTarget.Observe(ev.At, ev.ArgInt64("target", 0))
			// The gauge samples the post-fill pool depth.
			b.s.inflight.Observe(ev.At, ev.ArgInt64("inflight", 0)+ev.ArgInt64("launched", 0))
		case ev.Cat == trace.CatPool && ev.Name == trace.EvSegComplete:
			b.s.segsDone.Inc(ev.At)
		case ev.Cat == trace.CatPlayer && ev.Name == trace.EvStallBegin:
			if !stalled[ev.Peer] {
				stalled[ev.Peer] = true
				stalledNow++
				observeStalled(ev.At)
			}
		case ev.Cat == trace.CatPlayer && ev.Name == trace.EvStallEnd:
			if stalled[ev.Peer] {
				delete(stalled, ev.Peer)
				stalledNow--
				observeStalled(ev.At)
			}
		case ev.Cat == trace.CatPlayer && ev.Name == trace.EvFinished:
			// Finishing straight out of a stall closes it without a
			// stall_end.
			if stalled[ev.Peer] {
				delete(stalled, ev.Peer)
				stalledNow--
				observeStalled(ev.At)
			}
		}
	}
}

// Snap returns the accumulated snapshot.
func (b *TimeSeriesBuilder) Snap() trace.TSSnapshot { return b.ts.Snap() }

// BuildTimeSeriesDir reads every *.jsonl under dir (sorted by name, the
// AnalyzeDir contract) and folds them into one snapshot. The result is
// order-independent — windows aggregate commutatively — so reruns and
// different worker counts that produced the same per-cell logs yield a
// byte-identical CSV.
func BuildTimeSeriesDir(dir string, opts TimeSeriesOptions) (trace.TSSnapshot, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return trace.TSSnapshot{}, fmt.Errorf("tracereport: %w", err)
	}
	if len(paths) == 0 {
		return trace.TSSnapshot{}, fmt.Errorf("tracereport: no *.jsonl traces in %s", dir)
	}
	sort.Strings(paths)
	b := NewTimeSeriesBuilder(opts)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return trace.TSSnapshot{}, fmt.Errorf("tracereport: %w", err)
		}
		events, err := trace.ReadJSONL(f)
		f.Close()
		if err != nil {
			return trace.TSSnapshot{}, fmt.Errorf("tracereport: %s: %w", filepath.Base(path), err)
		}
		b.AddEvents(events)
	}
	return b.Snap(), nil
}
