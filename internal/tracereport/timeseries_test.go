package tracereport

import (
	"reflect"
	"testing"
	"time"

	"p2psplice/internal/trace"
)

// gauge is one gauge window holding the given samples.
func gauge(samples ...int64) trace.TSWindow {
	w := trace.TSWindow{Count: int64(len(samples)), Min: samples[0], Max: samples[0]}
	for _, v := range samples {
		w.Sum += v
		if v < w.Min {
			w.Min = v
		}
		if v > w.Max {
			w.Max = v
		}
	}
	return w
}

func player(atMS int64, peer int, name string) trace.Event {
	return trace.Event{At: time.Duration(atMS) * time.Millisecond, Peer: peer, Seg: -1, Cat: trace.CatPlayer, Name: name}
}

// TestTimeSeriesBuilderAddEvents folds hand-written event logs and
// checks the windows of the series each case is about (1 s windows).
func TestTimeSeriesBuilderAddEvents(t *testing.T) {
	tests := []struct {
		name   string
		peers  int
		events []trace.Event
		want   map[string][]trace.TSWindow
	}{
		{
			name:  "playback_finished closes an open stall",
			peers: 4,
			events: []trace.Event{
				player(100, 1, trace.EvStallBegin),
				player(1500, 1, trace.EvFinished),
			},
			want: map[string][]trace.TSWindow{
				trace.TSStalledPeers:          {gauge(1), gauge(0)},
				trace.TSStallFractionPermille: {gauge(250), gauge(0)},
			},
		},
		{
			name:  "repeated stall_begin for a stalled peer counts once",
			peers: 4,
			events: []trace.Event{
				player(100, 1, trace.EvStallBegin),
				player(200, 1, trace.EvStallBegin),
				player(300, 1, trace.EvStallEnd),
			},
			want: map[string][]trace.TSWindow{
				trace.TSStalledPeers: {gauge(1, 0)},
			},
		},
		{
			name: "zero Peers is inferred as the highest peer ID",
			events: []trace.Event{
				{At: 50 * time.Millisecond, Peer: 3, Seg: 0, Cat: trace.CatPool, Name: trace.EvSegComplete},
				player(100, 1, trace.EvStallBegin),
			},
			want: map[string][]trace.TSWindow{
				trace.TSStallFractionPermille: {gauge(333)},
				trace.TSSegmentsCompleted:     {{Count: 1, Sum: 1, Min: 1, Max: 1}},
			},
		},
		{
			name:  "inflight samples inflight plus launched",
			peers: 1,
			events: []trace.Event{
				{At: 10 * time.Millisecond, Peer: 1, Seg: 0, Cat: trace.CatPool, Name: trace.EvPoolFill,
					Args: []trace.Arg{
						trace.Int64("buffered_us", 1_500_000),
						trace.Int64("target", 5),
						trace.Int64("inflight", 2),
						trace.Int64("launched", 3),
					}},
			},
			want: map[string][]trace.TSWindow{
				trace.TSInflightFlows:     {gauge(5)},
				trace.TSBufferOccupancyUS: {gauge(1_500_000)},
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := NewTimeSeriesBuilder(TimeSeriesOptions{Window: time.Second, MaxWindows: 8, Peers: tt.peers})
			b.AddEvents(tt.events)
			got := map[string][]trace.TSWindow{}
			for _, s := range b.Snap().Series {
				got[s.Name] = s.Windows
			}
			for name, want := range tt.want {
				if !reflect.DeepEqual(got[name], want) {
					t.Errorf("%s windows = %+v, want %+v", name, got[name], want)
				}
			}
		})
	}
}
