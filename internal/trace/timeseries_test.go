package trace

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestTimeSeriesWindowing(t *testing.T) {
	ts := NewTimeSeries(TimeSeriesConfig{Window: time.Second, MaxWindows: 8})
	c := ts.Counter("segs")
	g := ts.Gauge("buffered_us")
	h := ts.Histogram("pool_k")

	c.Inc(0)
	c.Inc(999 * time.Millisecond) // still window 0
	c.Add(time.Second, 3)         // window 1 starts exactly at the boundary
	g.Observe(500*time.Millisecond, 40)
	g.Observe(700*time.Millisecond, 10)
	g.Observe(2500*time.Millisecond, 25)
	h.Observe(1500*time.Millisecond, 4)
	h.Observe(1600*time.Millisecond, 8)

	snap := ts.Snap()
	if snap.WindowNanos != int64(time.Second) {
		t.Fatalf("window %d, want 1s", snap.WindowNanos)
	}
	byName := map[string]TSSeriesStat{}
	for _, s := range snap.Series {
		byName[s.Name] = s
	}
	segs := byName["segs"]
	if segs.Kind != TSKindCounter || len(segs.Windows) != 2 {
		t.Fatalf("segs: kind=%s windows=%d, want counter/2", segs.Kind, len(segs.Windows))
	}
	if segs.Windows[0].Count != 2 || segs.Windows[0].Sum != 2 {
		t.Errorf("segs window 0 = %+v, want count=2 sum=2", segs.Windows[0])
	}
	if segs.Windows[1].Count != 1 || segs.Windows[1].Sum != 3 {
		t.Errorf("segs window 1 = %+v, want count=1 sum=3", segs.Windows[1])
	}
	buf := byName["buffered_us"]
	if len(buf.Windows) != 3 {
		t.Fatalf("buffered_us windows=%d, want 3 (dense through window 2)", len(buf.Windows))
	}
	if w := buf.Windows[0]; w.Count != 2 || w.Sum != 50 || w.Min != 10 || w.Max != 40 {
		t.Errorf("buffered_us window 0 = %+v, want count=2 sum=50 min=10 max=40", w)
	}
	if w := buf.Windows[1]; w.Count != 0 || w.Min != 0 || w.Max != 0 {
		t.Errorf("buffered_us window 1 = %+v, want empty", w)
	}
	pool := byName["pool_k"]
	if pool.Kind != TSKindHist || pool.Windows[1].Buckets == nil {
		t.Fatalf("pool_k: kind=%s buckets=%v, want hist with buckets", pool.Kind, pool.Windows[1].Buckets)
	}
	hist := pool.Windows[1].Hist(pool.Name, pool.Scale)
	if q := hist.Quantile(1); q != 8 {
		t.Errorf("pool_k window-1 p100 = %v, want 8", q)
	}
}

func TestTimeSeriesNilAndClamp(t *testing.T) {
	var nilTS *TimeSeries
	nilTS.Counter("x").Inc(0)
	nilTS.Gauge("y").Observe(0, 1)
	nilTS.Histogram("z").Observe(0, 1)
	if snap := nilTS.Snap(); len(snap.Series) != 0 || snap.WindowNanos != 0 {
		t.Fatalf("nil snapshot = %+v, want empty", snap)
	}

	ts := NewTimeSeries(TimeSeriesConfig{Window: time.Second, MaxWindows: 2})
	g := ts.Gauge("g")
	g.Observe(-5*time.Second, 7) // clamps low into window 0, uncounted
	g.Observe(10*time.Second, 9) // clamps high into the last window, counted
	snap := ts.Snap()
	s := snap.Series[0]
	if s.Clamped != 1 {
		t.Errorf("clamped = %d, want 1", s.Clamped)
	}
	if len(s.Windows) != 2 || s.Windows[0].Min != 7 || s.Windows[1].Max != 9 {
		t.Errorf("windows = %+v, want low clamp in 0 and high clamp in 1", s.Windows)
	}
}

func TestMergeTS(t *testing.T) {
	build := func(vals ...int64) TSSnapshot {
		ts := NewTimeSeries(TimeSeriesConfig{Window: time.Second, MaxWindows: 8})
		g := ts.Gauge("g")
		h := ts.Histogram("h")
		for i, v := range vals {
			at := time.Duration(i) * 400 * time.Millisecond
			g.Observe(at, v)
			h.Observe(at, v)
		}
		return ts.Snap()
	}
	a := build(5, 10, 15)
	b := build(2, 20)
	ab, err := MergeTS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := MergeTS(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ab, ba) {
		t.Fatal("MergeTS is not commutative")
	}
	g := ab.Series[0]
	if g.Name != "g" {
		t.Fatalf("series order %q, want g first", g.Name)
	}
	// Window 0 holds every observation (0ms, 400ms, 800ms) from both sides.
	if w := g.Windows[0]; w.Count != 5 || w.Sum != 52 || w.Min != 2 || w.Max != 20 {
		t.Errorf("merged window 0 = %+v, want count=5 sum=52 min=2 max=20", w)
	}

	other := NewTimeSeries(TimeSeriesConfig{Window: 2 * time.Second})
	other.Gauge("g").Observe(0, 1)
	if _, err := MergeTS(a, other.Snap()); err == nil {
		t.Error("merging mismatched window widths should error")
	}
	kindTS := NewTimeSeries(TimeSeriesConfig{Window: time.Second})
	kindTS.Counter("g").Inc(0)
	if _, err := MergeTS(a, kindTS.Snap()); err == nil {
		t.Error("merging mismatched series kinds should error")
	}
}

// TestTimeSeriesConcurrentDeterministic proves the commutative
// aggregation claim: any interleaving of a fixed observation set
// produces a bit-identical snapshot, CSV included.
func TestTimeSeriesConcurrentDeterministic(t *testing.T) {
	type obs struct {
		at time.Duration
		v  int64
	}
	var all []obs
	for i := 0; i < 2000; i++ {
		all = append(all, obs{at: time.Duration(i*13%5000) * time.Millisecond, v: int64(i*7%900 + 1)})
	}
	run := func(workers int) TSSnapshot {
		ts := NewTimeSeries(TimeSeriesConfig{Window: 500 * time.Millisecond, MaxWindows: 16})
		g := ts.Gauge("g")
		h := ts.Histogram("h")
		var wg sync.WaitGroup
		per := len(all) / workers
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(chunk []obs) {
				defer wg.Done()
				for _, o := range chunk {
					g.Observe(o.at, o.v)
					h.Observe(o.at, o.v)
				}
			}(all[w*per : (w+1)*per])
		}
		wg.Wait()
		return ts.Snap()
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("snapshot differs between serial and 4-way concurrent recording")
	}
	var csvA, csvB bytes.Buffer
	if err := serial.WriteCSV(&csvA); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteCSV(&csvB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvA.Bytes(), csvB.Bytes()) {
		t.Fatal("CSV differs between serial and concurrent recording")
	}
	if csvA.Len() == 0 {
		t.Fatal("empty CSV")
	}
}
