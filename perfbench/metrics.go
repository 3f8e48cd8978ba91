package main

import "fmt"

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; the self-test keeps the two in step.
type metricDef struct {
	name  string
	unit  string
	lower bool // lower is better
	// exact marks a per-layer count that repeats bit for bit across runs
	// of one seed.
	exact bool
}

// endToEndDefs are measured untraced on every workload.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", lower: true},
	{name: "goodput_mb_per_s", unit: "MB/s"},
	{name: "peak_heap_mb", unit: "MB", lower: true},
}

// perLayerDefs are reported by the traced run; a layer the workload does
// not run reports 0.
var perLayerDefs = []metricDef{
	{name: "media.synthesize_s", unit: "s", lower: true},
	{name: "splicer.splice_s", unit: "s", lower: true},
	{name: "splicer.segments", unit: "count", exact: true},
	{name: "container.manifest_s", unit: "s", lower: true},
	{name: "container.verify_mb_per_s", unit: "MB/s"},
	{name: "experiment.cells", unit: "count", exact: true},
	{name: "experiment.cell_s_p50", unit: "s", lower: true},
	{name: "experiment.cell_s_max", unit: "s", lower: true},
	{name: "experiment.parallel_speedup", unit: "ratio"},
	{name: "simpeer.run_s", unit: "s", lower: true},
	{name: "simpeer.source_picks", unit: "count", lower: true, exact: true},
	{name: "simpeer.source_retries", unit: "count", lower: true, exact: true},
	{name: "simpeer.retries_per_pick", unit: "ratio", lower: true, exact: true},
	{name: "simpeer.pool_fills", unit: "count", lower: true, exact: true},
	{name: "simpeer.us_per_event", unit: "us", lower: true},
	{name: "simpeer.pick_source_cpu_share", unit: "ratio", lower: true},
	{name: "reputation.penalties", unit: "count", exact: true},
	{name: "reputation.quarantines", unit: "count", exact: true},
	{name: "fault.crashes", unit: "count", exact: true},
	{name: "sim.events_fired", unit: "count", lower: true, exact: true},
	{name: "sim.events_per_s", unit: "1/s"},
	{name: "netem.reallocs", unit: "count", lower: true, exact: true},
	{name: "netem.flows_filled", unit: "count", lower: true, exact: true},
	{name: "netem.flows_filled_per_realloc", unit: "ratio", lower: true, exact: true},
	{name: "netem.components", unit: "count", lower: true, exact: true},
	{name: "netem.flows_started", unit: "count", lower: true, exact: true},
	{name: "netem.flows_cancelled", unit: "count", lower: true, exact: true},
	{name: "player.stalls", unit: "count", lower: true, exact: true},
	{name: "player.startups", unit: "count", exact: true},
	{name: "peer.segments_done", unit: "count", exact: true},
	{name: "peer.blocks_rx", unit: "count"},
	{name: "peer.sched_calls_per_segment", unit: "ratio", lower: true},
	{name: "peer.downloads_expired", unit: "count", lower: true},
	{name: "peer.verify_failures", unit: "count", lower: true},
	{name: "tracker.announce_rtt_ms_p50", unit: "ms", lower: true},
	{name: "trace.events", unit: "count"},
	{name: "trace.overhead_pct", unit: "%", lower: true},
	{name: "runtime.alloc_mb", unit: "MB", lower: true},
	{name: "runtime.gc_cycles", unit: "count", lower: true},
	{name: "cpu_share.sim", unit: "ratio", lower: true},
	{name: "cpu_share.netem", unit: "ratio", lower: true},
	{name: "cpu_share.simpeer", unit: "ratio", lower: true},
	{name: "cpu_share.player", unit: "ratio", lower: true},
	{name: "cpu_share.media", unit: "ratio", lower: true},
	{name: "cpu_share.splicer", unit: "ratio", lower: true},
	{name: "cpu_share.container", unit: "ratio", lower: true},
	{name: "cpu_share.reputation", unit: "ratio", lower: true},
	{name: "cpu_share.trace", unit: "ratio", lower: true},
	{name: "cpu_share.peer", unit: "ratio", lower: true},
	{name: "cpu_share.wire", unit: "ratio", lower: true},
	{name: "cpu_share.runtime", unit: "ratio", lower: true},
	{name: "cpu_share.other", unit: "ratio", lower: true},
}

// refKey identifies one recorded output digest.
type refKey struct {
	workload string
	scale    string
	seed     int64
}

// opResult is one closed-loop operation, already checked by the
// workload: attempted and failed count its checked outputs, and digest
// summarises the outputs for comparison with the recorded reference.
type opResult struct {
	seconds    float64 // timed part of the operation
	perOpSetup float64 // set-up paid inside each operation (swarm start), else 0
	bytes      float64 // segment bytes delivered (goodput numerator)
	playback   float64 // viewer-seconds of clip delivered, 0 without a clip
	transfers  float64 // segment transfers completed
	input      string  // the stated input size
	// slot names the part of the workload the operation ran; operations
	// cycle through the slots, and the loop's times are medians per slot.
	slot int
	// deferred marks an operation whose outputs a later operation checks.
	deferred  bool
	digest    uint64
	attempted int
	failed    int
}

// checker accumulates output checks. An operation whose digest differs
// from the recorded reference fails as a whole; for a seed without a
// reference, every operation must repeat the first one's digest.
type checker struct {
	ref       map[refKey]uint64
	key       refKey
	record    bool
	first     uint64
	seen      bool
	attempted int
	failed    int
	notes     []string
}

func (c *checker) check(r opResult) {
	if r.deferred {
		return
	}
	c.attempted += r.attempted
	failed := r.failed
	want, ok := c.ref[c.key]
	if c.record && !c.seen {
		c.note("reference %s/%s seed %d digest %016x", c.key.workload, c.key.scale, c.key.seed, r.digest)
	}
	switch {
	case ok && r.digest != want:
		c.note("digest %016x, reference %016x", r.digest, want)
		failed = r.attempted
	case !ok && c.seen && r.digest != c.first:
		c.note("digest %016x differs from the first operation's %016x", r.digest, c.first)
		failed = r.attempted
	case !ok && !c.seen:
		c.note("no reference digest for seed %d; operations checked against each other", c.key.seed)
	}
	if !c.seen {
		c.seen, c.first = true, r.digest
	}
	c.failed += failed
}

// same checks that an observed pass reproduced the untraced outputs.
func (c *checker) same(what string, got, want opResult) {
	c.attempted += got.attempted
	if got.digest != want.digest {
		c.note("%s digest %016x differs from the untraced %016x", what, got.digest, want.digest)
		c.failed += got.attempted
		return
	}
	c.failed += got.failed
}

func (c *checker) note(format string, args ...any) {
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}
