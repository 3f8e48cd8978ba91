package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"p2psplice/internal/pprofile"
	"p2psplice/internal/trace"
)

// countSink is the benchmark's trace.Sink: it keeps no events, only a
// count per (category, name) plus the sum of the simulator's
// events_fired summaries. It is safe for concurrent use because the real
// stack emits from several goroutines.
type countSink struct {
	mu          sync.Mutex // guards counts and eventsFired
	counts      map[string]int64
	eventsFired int64
}

func newCountSink() *countSink { return &countSink{counts: make(map[string]int64)} }

// Emit counts ev.
func (s *countSink) Emit(ev trace.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[ev.Cat+"/"+ev.Name]++
	if ev.Name == trace.EvSimSummary {
		s.eventsFired += ev.ArgInt64("events_fired", 0)
	}
}

// snapshot returns a copy of the counts and the events_fired sum.
func (s *countSink) snapshot() (map[string]int64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out, s.eventsFired
}

// get returns the count of events named cat/name.
func (s *countSink) get(cat, name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[cat+"/"+name]
}

// total returns the number of events seen.
func (s *countSink) total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, v := range s.counts {
		n += v
	}
	return n
}

// span is one timed call into a layer's public function, recorded from
// the benchmark side of the call.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder started
	End    float64 `json:"end_s"`
}

// spans records spans in memory. A nil *spans records nothing, so the
// untraced runs share the traced runs' call sites.
type spans struct {
	origin time.Time
	list   []span
	open   []int // stack of open span IDs; the benchmark has one caller
}

func newSpans() *spans { return &spans{origin: time.Now()} }

// begin opens a span under the innermost open span and returns the
// function that closes it.
func (s *spans) begin(name string) func() {
	if s == nil {
		return func() {}
	}
	parent := -1
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	id := len(s.list)
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, Start: time.Since(s.origin).Seconds()})
	s.open = append(s.open, id)
	return func() {
		s.list[id].End = time.Since(s.origin).Seconds()
		s.open = s.open[:len(s.open)-1]
	}
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// stats returns per-name totals and self times. A span's self time is
// its duration minus its children's durations; children never overlap
// because one caller opens them one after another.
func (s *spans) stats() []spanStat {
	child := make([]float64, len(s.list))
	for _, sp := range s.list {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	by := map[string]*spanStat{}
	var order []string
	for i, sp := range s.list {
		st, ok := by[sp.Name]
		if !ok {
			st = &spanStat{Name: sp.Name}
			by[sp.Name] = st
			order = append(order, sp.Name)
		}
		st.Count++
		st.Total += sp.End - sp.Start
		st.Self += sp.End - sp.Start - child[i]
	}
	out := make([]spanStat, len(order))
	for i, n := range order {
		out[i] = *by[n]
	}
	return out
}

// self returns the summed self time of the spans named name.
func (s *spans) self(name string) float64 {
	for _, st := range s.stats() {
		if st.Name == name {
			return st.Self
		}
	}
	return 0
}

// write stores the spans and their per-name stats as JSON at path.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Spans []span     `json:"spans"`
		Stats []spanStat `json:"stats"`
	}{s.list, s.stats()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// heapPeak samples the heap goal, the heap size the collector lets the
// program reach before the next cycle (twice the live heap at the last
// collection under the default GOGC, and never below 4 MB), and keeps
// the maximum. On the small simulated heaps the peaks of the live heap
// and of the bytes in use depend on where a run's few collections fall;
// the goal sits at its 4 MB floor there, and above it carries only the
// noise of the live heap measured at each collection.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/gc/heap/goal:bytes"

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapPeak starts the sampler; stopMB stops it and returns the peak
// in MB.
func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			if v := readHeap(s); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) stopMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// cpuLayers maps a cpu_share bucket to the function-name prefixes it
// owns. Shares use flat (leaf-frame) samples, so a layer is charged
// for the time spent in its own code only.
var cpuLayers = []struct {
	name     string
	prefixes []string
}{
	{"sim", []string{"p2psplice/internal/sim."}},
	{"netem", []string{"p2psplice/internal/netem."}},
	{"simpeer", []string{"p2psplice/internal/simpeer."}},
	{"player", []string{"p2psplice/internal/player."}},
	{"media", []string{"p2psplice/internal/media."}},
	{"splicer", []string{"p2psplice/internal/splicer."}},
	{"container", []string{"p2psplice/internal/container."}},
	{"reputation", []string{"p2psplice/internal/reputation."}},
	{"trace", []string{"p2psplice/internal/trace."}},
	{"peer", []string{"p2psplice/internal/peer."}},
	{"wire", []string{"p2psplice/internal/wire."}},
	{"runtime", []string{"runtime.", "runtime/", "internal/runtime/", "gcWriteBarrier"}},
}

// pickSourceFunc is the simpeer function a source-selection index would
// replace; its inclusive share is reported beside the flat layer shares.
const pickSourceFunc = "p2psplice/internal/simpeer.(*swarm).pickSourceFrom"

// cpuShares runs fn under the CPU profiler and returns cpu_share.<layer>
// for every layer, cpu_share.other for the rest (standard library,
// crypto, syscalls), and simpeer.pick_source_cpu_share.
func cpuShares(fn func() error) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	prof, err := pprofile.Parse(buf.Bytes())
	if err != nil {
		return nil, err
	}
	total := float64(prof.Total)
	out := make(map[string]float64, len(cpuLayers)+2)
	var named int64
	for _, l := range cpuLayers {
		var flat int64
		for _, f := range prof.Functions {
			for _, p := range l.prefixes {
				if strings.HasPrefix(f.Name, p) {
					flat += f.Flat
					break
				}
			}
		}
		named += flat
		out["cpu_share."+l.name] = ratio(float64(flat), total)
	}
	out["cpu_share.other"] = ratio(float64(prof.Total-named), total)
	for _, f := range prof.Functions {
		if f.Name == pickSourceFunc {
			out["simpeer.pick_source_cpu_share"] = ratio(float64(f.Cum), total)
		}
	}
	return out, nil
}

// memDelta measures allocation and GC cycles across fn.
func memDelta(fn func() error) (allocMB float64, gcCycles uint32, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), after.NumGC - before.NumGC, err
}

// passes are the runs a traced workload makes besides its set-up.
type passes struct {
	// pairs is how many untraced and observed operations alternate; the
	// trace overhead compares their median times.
	pairs int
	// plain runs one untraced operation.
	plain func() (opResult, error)
	// observed runs one operation with the observers attached; first is
	// true for the pass whose counts are reported.
	observed func(first bool) (opResult, error)
	// profiled runs the operation the CPU profile covers; nil profiles
	// an untraced operation.
	profiled func() (opResult, error)
}

// observe runs the passes, each from a collected heap like the closed
// loop's operations, checks that each reproduces the outputs of the
// first untraced operation, and sets the runtime, trace-overhead and
// CPU-share metrics. It returns the median untraced time.
func observe(chk *checker, m map[string]float64, p passes) (float64, error) {
	var ref opResult
	var plainSecs, observedSecs []float64
	for i := 0; i < p.pairs; i++ {
		var r opResult
		runtime.GC()
		alloc, gcs, err := memDelta(func() error {
			var err error
			r, err = p.plain()
			return err
		})
		if err != nil {
			return 0, err
		}
		if i == 0 {
			ref = r
			chk.check(r)
			m["runtime.alloc_mb"], m["runtime.gc_cycles"] = alloc, float64(gcs)
		} else {
			chk.same("untraced repeat", r, ref)
		}
		runtime.GC()
		o, err := p.observed(i == 0)
		if err != nil {
			return 0, err
		}
		chk.same("observed pass", o, ref)
		plainSecs = append(plainSecs, r.seconds)
		observedSecs = append(observedSecs, o.seconds)
	}
	profiled := p.profiled
	if profiled == nil {
		profiled = p.plain
	}
	var pr opResult
	runtime.GC()
	shares, err := cpuShares(func() error {
		var err error
		pr, err = profiled()
		return err
	})
	if err != nil {
		return 0, err
	}
	chk.same("profiled pass", pr, ref)
	for k, v := range shares {
		m[k] = v
	}
	m["trace.overhead_pct"] = 100 * (median(observedSecs) - median(plainSecs)) / median(plainSecs)
	return median(plainSecs), nil
}

// digest is an FNV-1a hash of little-endian 64-bit words.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) word(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) float(f float64) { d.word(math.Float64bits(f)) }

func (d *digest) sum() uint64 { return d.h.Sum64() }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
