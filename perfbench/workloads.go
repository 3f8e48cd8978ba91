package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/core"
	"p2psplice/internal/experiment"
	"p2psplice/internal/fault"
	"p2psplice/internal/media"
	"p2psplice/internal/metrics"
	"p2psplice/internal/reputation"
	"p2psplice/internal/simpeer"
	"p2psplice/internal/splicer"
	"p2psplice/internal/swarmbench"
	"p2psplice/internal/trace"
)

// Each run repeats the workload's set-up at least minSetupReps times,
// and more while the repetitions take under setupBudget seconds, so a
// millisecond set-up is still timed often enough for a steady median.
const (
	minSetupReps = 5
	maxSetupReps = 41
	setupBudget  = 1.0
)

// scale sizes every workload. fullScale is the benchmark; tinyScale
// keeps the self-test fast.
type scale struct {
	name string

	fig2Leechers   int
	fig2Runs       int
	fig2Clip       time.Duration
	fig2Bandwidths []int64

	churnLeechers int
	churnClip     time.Duration

	netemPeers int

	realClip time.Duration
}

func fullScale() scale {
	p := experiment.DefaultParams()
	return scale{
		name:           "full",
		fig2Leechers:   p.Leechers,
		fig2Runs:       p.Runs,
		fig2Clip:       p.ClipDuration,
		fig2Bandwidths: experiment.Fig2Bandwidths,
		churnLeechers:  64,
		churnClip:      2 * time.Minute,
		netemPeers:     10_000,
		realClip:       10 * time.Minute,
	}
}

func tinyScale() scale {
	return scale{
		name:           "tiny",
		fig2Leechers:   4,
		fig2Runs:       1,
		fig2Clip:       20 * time.Second,
		fig2Bandwidths: []int64{256, 1024},
		churnLeechers:  10,
		churnClip:      30 * time.Second,
		netemPeers:     400,
		realClip:       20 * time.Second,
	}
}

// instance is one workload prepared for one seed and scale.
type instance interface {
	// prepare runs one repetition of the set-up; the last one's inputs
	// are the ones the operations use.
	prepare(sp *spans) error
	// op runs and checks one untraced closed-loop operation.
	op(sp *spans) (opResult, error)
	// layers runs the observed passes and returns per-layer metrics.
	layers(sp *spans, chk *checker) (map[string]float64, error)
}

// workload is one named benchmark workload.
type workload struct {
	name        string
	why         string
	newInstance func(seed int64, sc scale) instance
}

var workloads = []*workload{
	{
		name: "paper-fig2",
		why: "Paper Fig. 2/3 sweep at DefaultParams via Params.Fig2Stalls, Workers=1, one 12-cell bandwidth column " +
			"per op: media, splicer, simpeer, netem, sim and player. Closed loop, 1 caller.",
		newInstance: func(seed int64, sc scale) instance { return newFig2(seed, sc) },
	},
	{
		name: "swarm-churn",
		why: "64-leecher simpeer.RunSwarm per op, 4 swarms per seed in turn; every 4th leecher churning, every 5th a " +
			"60% polluter, reputation on: write-heavy source selection. Closed loop, 1 caller.",
		newInstance: func(seed int64, sc scale) instance { return newChurn(seed, sc) },
	},
	{
		name: "netem-10k",
		why: "swarmbench.Run with 10,000 peers on 1 shard: only sim and netem run, so an engine change shows here " +
			"and a simpeer change must not. Closed loop, 1 caller.",
		newInstance: func(seed int64, sc scale) instance { return newNetem(seed, sc) },
	},
	{
		name: "realstack-loopback",
		why: "Tracker, seeder and 2 viewers (nproc) over loopback TCP on a 10-min clip: the only run of peer, wire, " +
			"tracker and container verification; no sim. Closed loop, 1 caller.",
		newInstance: func(seed int64, sc scale) instance { return newRealStack(seed, sc) },
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// spliceMeta is the swarm-level view of spliced segments, with wire
// sizes accounting for the container framing.
func spliceMeta(segs []splicer.Segment) []simpeer.SegmentMeta {
	out := make([]simpeer.SegmentMeta, len(segs))
	for i, s := range segs {
		out[i] = simpeer.SegmentMeta{Bytes: container.WireSize(len(s.Frames), s.Bytes()), Duration: s.Duration()}
	}
	return out
}

func metaBytes(segs []simpeer.SegmentMeta) int64 {
	var n int64
	for _, s := range segs {
		n += s.Bytes
	}
	return n
}

// synthesizeAndSplice runs the media and splicer layers once, under spans.
func synthesizeAndSplice(sp *spans, enc media.EncoderConfig, clip time.Duration, seed int64,
	splicers []splicer.Splicer) (*media.Video, [][]splicer.Segment, error) {
	end := sp.begin("media.Synthesize")
	v, err := media.Synthesize(enc, clip, seed)
	end()
	if err != nil {
		return nil, nil, err
	}
	out := make([][]splicer.Segment, len(splicers))
	for i, s := range splicers {
		end := sp.begin("splicer.Splice")
		out[i], err = s.Splice(v)
		end()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.Name(), err)
		}
	}
	return v, out, nil
}

// simCounts adds the simulator-side counts a countSink saw to m.
func simCounts(m map[string]float64, sink *countSink) {
	counts, fired := sink.snapshot()
	get := func(cat, name string) float64 { return float64(counts[cat+"/"+name]) }
	m["simpeer.source_picks"] = get(trace.CatPool, trace.EvSourcePick)
	m["simpeer.source_retries"] = get(trace.CatPool, trace.EvSourceRetry)
	m["simpeer.retries_per_pick"] = ratio(m["simpeer.source_retries"], m["simpeer.source_picks"])
	m["simpeer.pool_fills"] = get(trace.CatPool, trace.EvPoolFill)
	m["reputation.penalties"] = get(trace.CatRep, trace.EvRepPenalty)
	m["reputation.quarantines"] = get(trace.CatRep, trace.EvQuarantine)
	m["fault.crashes"] = get(trace.CatFault, trace.EvPeerCrash)
	m["sim.events_fired"] = float64(fired)
	m["netem.flows_started"] = get(trace.CatFlow, trace.EvFlowSetup)
	m["netem.flows_cancelled"] = get(trace.CatFlow, trace.EvFlowCancel)
	m["player.stalls"] = get(trace.CatPlayer, trace.EvStallBegin)
	m["player.startups"] = get(trace.CatPlayer, trace.EvStartup)
	m["trace.events"] = float64(sink.total())
}

// spanMeans sets each layer's per-call self time from the spans.
func spanMeans(m map[string]float64, sp *spans) {
	for _, st := range sp.stats() {
		key := map[string]string{
			"media.Synthesize":        "media.synthesize_s",
			"splicer.Splice":          "splicer.splice_s",
			"container.BuildManifest": "container.manifest_s",
		}[st.Name]
		if key != "" {
			m[key] = st.Self / float64(st.Count)
		}
	}
}

// ---- paper-fig2 ----

type fig2 struct {
	p     experiment.Params
	bws   []int64
	names []string                // series names in SplicingSet order
	segs  [][]simpeer.SegmentMeta // per series, from the last set-up

	// The closed loop sweeps one bandwidth column per operation, in
	// bandwidth order, so a run holds many short operations instead of
	// two or three whole sweeps. cols[j] holds the latest figure values
	// of column j by series; once every column has values, each
	// operation checks the whole figure with its fresh column in place.
	next     int
	cols     [][]float64
	deferred int // cells run before every column had values
}

// newFig2 sets the sweep up at DefaultParams. Like swarm-churn it plays
// the DefaultParams clip, so the input size is the same for every seed
// (a seeded clip moved a sweep's time by up to 25% from seed to seed);
// the seed drives the swarms.
func newFig2(seed int64, sc scale) *fig2 {
	p := experiment.DefaultParams()
	p.BaseSeed = 1000 + 10*seed
	p.Leechers = sc.fig2Leechers
	p.Runs = sc.fig2Runs
	p.ClipDuration = sc.fig2Clip
	p.Workers = 1
	f := &fig2{p: p, bws: sc.fig2Bandwidths}
	for _, s := range experiment.SplicingSet() {
		name := s.Name()
		if s.Kind() == splicer.KindGOP {
			name = "gop" // the series key Fig2Stalls uses
		}
		f.names = append(f.names, name)
	}
	return f
}

func (f *fig2) prepare(sp *spans) error {
	set := experiment.SplicingSet()
	_, segs, err := synthesizeAndSplice(sp, f.p.Encoder, f.p.ClipDuration, f.p.VideoSeed, set)
	if err != nil {
		return err
	}
	f.segs = make([][]simpeer.SegmentMeta, len(set))
	for i, s := range set {
		f.segs[i] = spliceMeta(segs[i])
		// Params.Segments memoizes the same work process-wide; it must
		// hand the sweep exactly the segments spliced here, which is what
		// lets the traced replay stand in for Fig2Stalls.
		cached, err := f.p.Segments(s)
		if err != nil {
			return err
		}
		if len(cached) != len(f.segs[i]) {
			return fmt.Errorf("%s: Params.Segments has %d segments, Splice %d", f.names[i], len(cached), len(f.segs[i]))
		}
		for j := range cached {
			if cached[j] != f.segs[i][j] {
				return fmt.Errorf("%s: Params.Segments differs from Splice at segment %d", f.names[i], j)
			}
		}
	}
	return nil
}

func (f *fig2) cells() int { return len(f.names) * len(f.bws) * f.p.Runs }

// check digests the figure values, series by series with bandwidths in
// order, and counts the cells behind values that are missing or not a
// stall count.
func (f *fig2) check(values map[string][]float64) (uint64, int) {
	d := newDigest()
	bad := 0
	for _, name := range f.names {
		vals := values[name]
		if len(vals) != len(f.bws) {
			bad += len(f.bws) * f.p.Runs
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				bad += f.p.Runs
			}
			d.float(v)
		}
	}
	return d.sum(), bad
}

// columnSize sets the delivered sizes of the cells at one bandwidth.
func (f *fig2) columnSize(r *opResult) {
	perCell := float64(f.p.Leechers * f.p.Runs)
	for i := range f.names {
		r.bytes += float64(metaBytes(f.segs[i])) * perCell
		r.transfers += float64(len(f.segs[i])) * perCell
	}
	r.playback = float64(len(f.names)*f.p.Runs*f.p.Leechers) * f.p.ClipDuration.Seconds()
}

// result checks a whole sweep's figure values and states its input size.
func (f *fig2) result(values map[string][]float64, secs float64) opResult {
	r := opResult{seconds: secs, attempted: f.cells()}
	var bad int
	r.digest, bad = f.check(values)
	r.failed = min(bad, r.attempted)
	f.columnSize(&r)
	r.bytes *= float64(len(f.bws))
	r.transfers *= float64(len(f.bws))
	r.playback *= float64(len(f.bws))
	r.input = fmt.Sprintf("%d cells (%d splicers x %d bandwidths x %d runs) x %d viewers x %v clip",
		f.cells(), len(f.names), len(f.bws), f.p.Runs, f.p.Leechers, f.p.ClipDuration)
	return r
}

func (f *fig2) sweep(sp *spans, workers int) (opResult, error) {
	p := f.p
	p.Workers = workers
	end := sp.begin("experiment.Fig2Stalls")
	t0 := time.Now()
	res, err := p.Fig2Stalls(f.bws)
	secs := time.Since(t0).Seconds()
	end()
	if err != nil {
		return opResult{}, err
	}
	return f.result(res.Values, secs), nil
}

// op runs the sweep's next bandwidth column through Fig2Stalls. Its
// cells are the ones the whole sweep runs at that bandwidth (seeds
// BaseSeed+run do not depend on the column), so the columns put together
// are the Figure 2 values, checked against the reference for the seed.
// The operations of the first pass over the columns are deferred until
// the last of them completes the figure.
func (f *fig2) op(sp *spans) (opResult, error) {
	if f.cols == nil {
		f.cols = make([][]float64, len(f.bws))
	}
	j := f.next % len(f.bws)
	f.next++
	end := sp.begin("experiment.Fig2Stalls")
	t0 := time.Now()
	res, err := f.p.Fig2Stalls(f.bws[j : j+1])
	secs := time.Since(t0).Seconds()
	end()
	if err != nil {
		return opResult{}, err
	}
	col := make([]float64, len(f.names))
	for i, name := range f.names {
		col[i] = math.NaN() // a missing value fails the check
		if vals := res.Values[name]; len(vals) == 1 {
			col[i] = vals[0]
		}
	}
	f.cols[j] = col

	r := opResult{seconds: secs, slot: j}
	f.columnSize(&r)
	r.input = fmt.Sprintf("%d cells per bandwidth (%d splicers x %d runs) x %d bandwidths x %d viewers x %v clip",
		len(f.names)*f.p.Runs, len(f.names), f.p.Runs, len(f.bws), f.p.Leechers, f.p.ClipDuration)
	f.deferred += len(f.names) * f.p.Runs
	if f.next < len(f.bws) {
		r.deferred = true
		return r, nil
	}
	values := map[string][]float64{}
	for i, name := range f.names {
		for _, c := range f.cols {
			values[name] = append(values[name], c[i])
		}
	}
	r.attempted, f.deferred = f.deferred, 0
	var bad int
	r.digest, bad = f.check(values)
	r.failed = min(bad, r.attempted)
	return r, nil
}

// swarmConfig mirrors the configuration Fig2Stalls gives each cell; the
// replay proves the mirror exact by reproducing the figure bit for bit.
func (f *fig2) swarmConfig(bw int64, run int) simpeer.SwarmConfig {
	return simpeer.SwarmConfig{
		Seed:                 f.p.BaseSeed + int64(run),
		Leechers:             f.p.Leechers,
		BandwidthBytesPerSec: bw * 1024,
		PeerAccessDelay:      25 * time.Millisecond,
		SeederAccessDelay:    25 * time.Millisecond,
		LossRate:             f.p.LossPct / 100,
		Policy:               core.AdaptivePool{},
		OracleBandwidth:      true,
		JoinSpread:           f.p.JoinSpread,
		ResumeBuffer:         f.p.ResumeBuffer,
	}
}

func (f *fig2) layers(sp *spans, chk *checker) (map[string]float64, error) {
	m := map[string]float64{}
	sink := newCountSink()
	var cellSecs []float64
	var parallel opResult
	serialSecs, err := observe(chk, m, passes{
		pairs: 1,
		plain: func() (opResult, error) { return f.sweep(sp, 1) },
		// The replay digests its averaged values like a sweep, so the
		// check that it reproduced the untraced outputs is a bit-for-bit
		// comparison with the figure.
		observed: func(bool) (opResult, error) {
			r, secs, err := f.replay(sp, sink)
			cellSecs = secs
			return r, err
		},
		profiled: func() (opResult, error) {
			var err error
			parallel, err = f.sweep(sp, nprocWorkers())
			return parallel, err
		},
	})
	if err != nil {
		return nil, err
	}
	simCounts(m, sink)
	spanMeans(m, sp)
	replaySecs := 0.0
	for _, c := range cellSecs {
		replaySecs += c
	}
	m["splicer.segments"] = float64(segCount(f.segs))
	m["experiment.cells"] = float64(len(cellSecs))
	m["experiment.cell_s_p50"] = median(cellSecs)
	m["experiment.cell_s_max"] = maxOf(cellSecs)
	m["experiment.parallel_speedup"] = serialSecs / parallel.seconds
	m["simpeer.run_s"] = replaySecs
	m["simpeer.us_per_event"] = 1e6 * replaySecs / m["sim.events_fired"]
	m["sim.events_per_s"] = m["sim.events_fired"] / replaySecs
	return m, nil
}

// replay runs every cell of the sweep through simpeer.RunSwarm with the
// counting sink and a registry attached and averages the runs as the
// figure does. It also returns each cell's time.
func (f *fig2) replay(sp *spans, sink *countSink) (opResult, []float64, error) {
	reg := trace.NewRegistry()
	tracer := trace.New(sink)
	values := map[string][]float64{}
	var cellSecs []float64
	end := sp.begin("replay")
	defer end()
	t0 := time.Now()
	for i, name := range f.names {
		for _, bw := range f.bws {
			stalls := make([]float64, f.p.Runs)
			for r := 0; r < f.p.Runs; r++ {
				cfg := f.swarmConfig(bw, r)
				cfg.Tracer, cfg.Metrics, cfg.MetricsScheme = tracer, reg, name
				endCell := sp.begin("simpeer.RunSwarm")
				c0 := time.Now()
				res, err := simpeer.RunSwarm(cfg, f.segs[i])
				cellSecs = append(cellSecs, time.Since(c0).Seconds())
				endCell()
				if err != nil {
					return opResult{}, nil, fmt.Errorf("replay %s at %d kB/s run %d: %w", name, bw, r, err)
				}
				stalls[r] = res.Summary().MeanStalls
			}
			values[name] = append(values[name], metrics.Mean(stalls))
		}
	}
	return f.result(values, time.Since(t0).Seconds()), cellSecs, nil
}

func segCount(segs [][]simpeer.SegmentMeta) int {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	return n
}

// ---- swarm-churn ----

type churn struct {
	seed     int64
	leechers int
	clip     time.Duration
	segs     []simpeer.SegmentMeta
	plans    []fault.Plan // one per swarm of the seed

	// The closed loop runs the seed's swarms in turn, one per operation.
	// last[j] is swarm j's latest result; once every swarm has run, each
	// operation checks the seed's digest with its fresh result in place.
	next             int
	last             []opResult
	pending, pendBad int // viewers checked, and unfinished, before every swarm had run
}

// Churn parameters: every 4th leecher churns, every 5th pollutes. A seed
// stands for churnSwarms swarms with their own seeds and churn plans:
// one swarm's time moves by up to 20% from seed to seed with its plan,
// and the sum over several moves less.
const (
	churnEvery      = 4
	churnMeanOnline = 40 * time.Second
	churnMeanOff    = 5 * time.Second
	polluterEvery   = 5
	polluterPct     = 60
	churnBandwidth  = 256 * 1024
	churnSwarms     = 4
)

func newChurn(seed int64, sc scale) *churn {
	return &churn{seed: seed, leechers: sc.churnLeechers, clip: sc.churnClip}
}

// swarmSeed seeds swarm j of the workload seed.
func (c *churn) swarmSeed(j int) int64 { return c.seed*churnSwarms + int64(j) }

func (c *churn) prepare(sp *spans) error {
	p := experiment.DefaultParams()
	_, segs, err := synthesizeAndSplice(sp, p.Encoder, c.clip, p.VideoSeed,
		[]splicer.Splicer{splicer.DurationSplicer{Target: 4 * time.Second}})
	if err != nil {
		return err
	}
	c.segs = spliceMeta(segs[0])
	horizon := 2*c.clip + 30*time.Second
	var churners []int
	var polluters []fault.Plan
	for id := 1; id <= c.leechers; id++ {
		if id%churnEvery == 0 {
			churners = append(churners, id)
		}
		if id%polluterEvery == 0 {
			polluters = append(polluters, fault.Polluter(id, 0, horizon, polluterPct))
		}
	}
	c.plans = make([]fault.Plan, churnSwarms)
	for j := range c.plans {
		plans := append(polluters[:len(polluters):len(polluters)],
			fault.Churn(c.swarmSeed(j), churners, horizon, churnMeanOnline, churnMeanOff))
		c.plans[j] = fault.Merge(plans...)
		if err := c.plans[j].Validate(c.leechers); err != nil {
			return err
		}
	}
	return nil
}

func (c *churn) config(j int) simpeer.SwarmConfig {
	rep := reputation.Default()
	return simpeer.SwarmConfig{
		Seed:                 c.swarmSeed(j),
		Leechers:             c.leechers,
		BandwidthBytesPerSec: churnBandwidth,
		PeerAccessDelay:      25 * time.Millisecond,
		SeederAccessDelay:    25 * time.Millisecond,
		LossRate:             0.05,
		Policy:               core.AdaptivePool{},
		OracleBandwidth:      true,
		JoinSpread:           5 * time.Second,
		ResumeBuffer:         6 * time.Second,
		Faults:               c.plans[j],
		Reputation:           &rep,
	}
}

// run runs one swarm and digests its outputs.
func (c *churn) run(sp *spans, cfg simpeer.SwarmConfig) (opResult, error) {
	end := sp.begin("simpeer.RunSwarm")
	t0 := time.Now()
	res, err := simpeer.RunSwarm(cfg, c.segs)
	secs := time.Since(t0).Seconds()
	end()
	if err != nil {
		return opResult{}, err
	}
	d := newDigest()
	r := opResult{seconds: secs, attempted: len(res.Samples)}
	for _, s := range res.Samples {
		if !s.Finished {
			r.failed++
		}
		d.word(uint64(s.Peer))
		d.word(uint64(s.Startup))
		d.word(uint64(s.Stalls))
		d.word(uint64(s.TotalStall))
	}
	for _, p := range res.Peers {
		d.word(uint64(p.Crashes))
	}
	d.word(uint64(res.EndTime))
	d.word(uint64(res.Departed))
	d.word(uint64(res.Crashed))
	d.word(uint64(res.Adversarial))
	r.digest = d.sum()
	r.bytes = float64(metaBytes(c.segs) * int64(c.leechers))
	r.transfers = float64(len(c.segs) * c.leechers)
	r.playback = float64(c.leechers) * c.clip.Seconds()
	r.input = fmt.Sprintf("%d swarms per seed, one per op: %d viewers x %v clip in %d segments", churnSwarms, c.leechers, c.clip, len(c.segs))
	return r, nil
}

// seedDigest digests the seed's swarms' digests in swarm order.
func seedDigest(rs []opResult) uint64 {
	d := newDigest()
	for _, r := range rs {
		d.word(r.digest)
	}
	return d.sum()
}

// op runs the seed's next swarm. The operations of the first pass over
// the swarms are deferred until the last of them completes the seed's
// digest.
func (c *churn) op(sp *spans) (opResult, error) {
	if c.last == nil {
		c.last = make([]opResult, churnSwarms)
	}
	j := c.next % churnSwarms
	c.next++
	r, err := c.run(sp, c.config(j))
	if err != nil {
		return opResult{}, err
	}
	r.slot = j
	c.last[j] = r
	c.pending += r.attempted
	c.pendBad += r.failed
	if c.next < churnSwarms {
		r.deferred = true
		return r, nil
	}
	r.attempted, r.failed, c.pending, c.pendBad = c.pending, c.pendBad, 0, 0
	r.digest = seedDigest(c.last)
	return r, nil
}

// pass runs every swarm of the seed once, with mod applied to each
// configuration, and folds the results into one.
func (c *churn) pass(sp *spans, mod func(*simpeer.SwarmConfig)) (opResult, error) {
	rs := make([]opResult, churnSwarms)
	var sum opResult
	for j := range rs {
		cfg := c.config(j)
		mod(&cfg)
		r, err := c.run(sp, cfg)
		if err != nil {
			return opResult{}, err
		}
		rs[j] = r
		sum.seconds += r.seconds
		sum.attempted += r.attempted
		sum.failed += r.failed
	}
	sum.digest = seedDigest(rs)
	return sum, nil
}

func (c *churn) layers(sp *spans, chk *checker) (map[string]float64, error) {
	m := map[string]float64{}
	sink := newCountSink()
	plainSecs, err := observe(chk, m, passes{
		pairs: 1,
		plain: func() (opResult, error) { return c.pass(sp, func(*simpeer.SwarmConfig) {}) },
		observed: func(bool) (opResult, error) {
			return c.pass(sp, func(cfg *simpeer.SwarmConfig) {
				cfg.Tracer, cfg.Metrics = trace.New(sink), trace.NewRegistry()
			})
		},
	})
	if err != nil {
		return nil, err
	}
	simCounts(m, sink)
	spanMeans(m, sp)
	m["splicer.segments"] = float64(len(c.segs))
	m["simpeer.run_s"] = plainSecs
	m["simpeer.us_per_event"] = 1e6 * plainSecs / m["sim.events_fired"]
	m["sim.events_per_s"] = m["sim.events_fired"] / plainSecs
	return m, nil
}

// ---- netem-10k ----

type netemBench struct {
	cfg swarmbench.Config
}

func newNetem(seed int64, sc scale) *netemBench {
	return &netemBench{cfg: swarmbench.Config{
		Peers:        sc.netemPeers,
		Shards:       1,
		Seed:         seed,
		SegmentBytes: 256 << 10,
		Workers:      1,
	}}
}

// prepare builds the swarm and fires one event: the cost of getting
// the 10k-peer network ready to run.
func (n *netemBench) prepare(sp *spans) error {
	cfg := n.cfg
	cfg.MaxEvents = 1
	end := sp.begin("swarmbench.Run(MaxEvents=1)")
	res, err := swarmbench.Run(cfg)
	end()
	if err != nil {
		return err
	}
	if !res.Truncated {
		return fmt.Errorf("a one-event run was not truncated")
	}
	return nil
}

func (n *netemBench) run(sp *spans, cfg swarmbench.Config) (opResult, swarmbench.Result, error) {
	end := sp.begin("swarmbench.Run")
	t0 := time.Now()
	res, err := swarmbench.Run(cfg)
	secs := time.Since(t0).Seconds()
	end()
	if err != nil {
		return opResult{}, res, err
	}
	r := opResult{
		seconds:   secs,
		digest:    res.Digest,
		attempted: int(res.Completed),
		bytes:     float64(res.Completed) * float64(cfg.SegmentBytes),
		transfers: float64(res.Completed),
		input:     fmt.Sprintf("%d peers, 1 shard, %d transfers of %d KiB", cfg.Peers, res.Completed, cfg.SegmentBytes>>10),
	}
	if res.Truncated || res.Completed == 0 {
		r.failed = r.attempted
		if r.attempted == 0 {
			r.attempted, r.failed = 1, 1
		}
	}
	return r, res, nil
}

func (n *netemBench) op(sp *spans) (opResult, error) {
	r, _, err := n.run(sp, n.cfg)
	return r, err
}

func (n *netemBench) layers(sp *spans, chk *checker) (map[string]float64, error) {
	m := map[string]float64{}
	var res, traced swarmbench.Result
	plainSecs, err := observe(chk, m, passes{
		pairs: 3,
		plain: func() (opResult, error) {
			r, out, err := n.run(sp, n.cfg)
			res = out
			return r, err
		},
		// The observed pass attaches swarmbench's own observers: the
		// windowed time series and a sampled event ring admitting every
		// event.
		observed: func(bool) (opResult, error) {
			cfg := n.cfg
			cfg.TimeSeriesWindow = time.Second
			cfg.TraceCapacity = 1 << 12
			cfg.TraceSampleRate = 1
			r, out, err := n.run(sp, cfg)
			traced = out
			return r, err
		},
	})
	if err != nil {
		return nil, err
	}
	m["sim.events_fired"] = float64(res.Events)
	m["sim.events_per_s"] = float64(res.Events) / plainSecs
	m["netem.reallocs"] = float64(res.Stats.Reallocs)
	m["netem.flows_filled"] = float64(res.Stats.FlowsFilled)
	m["netem.flows_filled_per_realloc"] = ratio(float64(res.Stats.FlowsFilled), float64(res.Stats.Reallocs))
	m["netem.components"] = float64(res.Stats.Components)
	// swarmbench never cancels a transfer, so in an untruncated run every
	// flow it starts completes.
	m["netem.flows_started"] = float64(res.Completed)
	m["trace.events"] = float64(traced.Trace.Sampled + traced.Trace.Rejected)
	return m, nil
}
