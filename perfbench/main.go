// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time against generated inputs, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a separate observed run) as the last line of
// standard output:
//
//	go build -o perfbench . && ./perfbench --workload swarm-churn --seed 3 --seconds 15 --trace 0
//
// run.sh builds it from source and runs it from the repository root.
// The benchmark measures each layer from outside: it times calls into
// the layers' public functions and reads counters only through the
// observer hooks the program already exposes (a trace.Tracer with a
// counting Sink, trace.Registry, swarmbench.Result and a CPU profile
// read with internal/pprofile).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 1, "workload seed; inputs are generated from it")
		seconds = flag.Float64("seconds", 15, "how long the closed loop measures")
		traced  = flag.Int("trace", 0, "1 runs the observed pass and prints per-layer metrics")
		record  = flag.Bool("record", false, "print the output digest for this seed instead of checking it")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	limitProcs()
	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traced == 1,
		scale:    fullScale(),
		refs:     references,
		record:   *record,
		spansDir: filepath.Join(".bench_build", "trace"),
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// limitProcs caps GOMAXPROCS at the CPUs this process may run on, so
// the parallel paths never oversubscribe a small box.
func limitProcs() {
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	// refs holds the recorded output digest per workload, scale and seed.
	refs map[refKey]uint64
	// record prints digests instead of comparing them with refs.
	record bool
	// spansDir receives the traced run's spans; empty keeps them in memory.
	spansDir string
}

// run executes one invocation and returns its result. Progress and the
// human-readable report go to out.
func run(cfg runConfig, out io.Writer) (result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	fmt.Fprintf(out, "workload %s seed %d: %s\n", w.name, cfg.seed, w.why)
	fmt.Fprintf(out, "env: %s GOMAXPROCS=%d nproc=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	var sp *spans
	if cfg.trace {
		sp = newSpans()
	}
	inst := w.newInstance(cfg.seed, cfg.scale)

	var setups []float64
	for spent := 0.0; len(setups) < minSetupReps || (spent < setupBudget && len(setups) < maxSetupReps); {
		t0 := time.Now()
		if err := inst.prepare(sp); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	chk := &checker{ref: cfg.refs, key: refKey{w.name, cfg.scale.name, cfg.seed}, record: cfg.record}

	if cfg.trace {
		layers, err := inst.layers(sp, chk)
		if err != nil {
			return result{}, fmt.Errorf("%s traced run: %w", w.name, err)
		}
		if cfg.spansDir != "" {
			path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
			if err := sp.write(path); err != nil {
				return result{}, fmt.Errorf("write spans: %w", err)
			}
			fmt.Fprintf(out, "spans written to %s\n", path)
		}
		for _, st := range sp.stats() {
			fmt.Fprintf(out, "span %-28s n=%-4d total=%9.4fs self=%9.4fs\n", st.Name, st.Count, st.Total, st.Self)
		}
		return finish(out, chk, layerMetrics(layers)), nil
	}

	heap := startHeapPeak()
	var ops []opResult
	start := time.Now()
	for len(ops) == 0 || ops[len(ops)-1].deferred || time.Since(start).Seconds() < cfg.seconds {
		// Every operation starts from a collected heap, so one
		// operation's garbage is not charged to the next.
		runtime.GC()
		r, err := inst.op(nil)
		if err != nil {
			heap.stopMB()
			return result{}, fmt.Errorf("%s: %w", w.name, err)
		}
		chk.check(r)
		ops = append(ops, r)
	}
	peak := heap.stopMB()
	return finish(out, chk, endToEnd(out, setups, ops, peak, chk)), nil
}

// endToEnd reduces the closed loop's operations to the end-to-end
// metrics and prints the report, with the workload-specific
// throughputs and fail_ratio that stay out of the JSON line. Each slot's
// operations are reduced to their median time; a throughput is the
// slots' work over the sum of their median times.
func endToEnd(out io.Writer, setups []float64, ops []opResult, peakMB float64, chk *checker) map[string]float64 {
	var perOpSetup []float64
	bySlot := map[int][]opResult{}
	var slots []int
	for _, r := range ops {
		if r.perOpSetup > 0 {
			perOpSetup = append(perOpSetup, r.perOpSetup)
		}
		if _, ok := bySlot[r.slot]; !ok {
			slots = append(slots, r.slot)
		}
		bySlot[r.slot] = append(bySlot[r.slot], r)
	}
	var secs, bytes, playback, transfers float64
	for _, s := range slots {
		var t, b, p, x []float64
		for _, r := range bySlot[s] {
			t, b, p, x = append(t, r.seconds), append(b, r.bytes), append(p, r.playback), append(x, r.transfers)
		}
		secs += median(t)
		bytes += median(b)
		playback += median(p)
		transfers += median(x)
	}
	goodput := bytes / (1 << 20) / secs
	setup := median(setups) + median(perOpSetup)
	fmt.Fprintf(out, "input: %s\n", ops[0].input)
	fmt.Fprintf(out, "%-18s %12.4f s     (median of %d set-ups%s)\n", "setup_s", setup, len(setups), perOpSetupNote(perOpSetup))
	fmt.Fprintf(out, "%-18s %12.4f s     (%s)\n", "op_s", secs, slotNote(len(ops), len(slots)))
	fmt.Fprintf(out, "%-18s %12.4f MB/s  (over op_s)\n", "goodput_mb_per_s", goodput)
	if playback > 0 {
		fmt.Fprintf(out, "%-18s %12.1f s/s   (over op_s)\n", "playback_s_per_s", playback/secs)
	} else {
		fmt.Fprintf(out, "%-18s %12s\n", "playback_s_per_s", "n/a (no clip)")
	}
	fmt.Fprintf(out, "%-18s %12.1f 1/s   (over op_s)\n", "transfers_per_s", transfers/secs)
	fmt.Fprintf(out, "%-18s %12.2f MB    (peak heap goal over the loop)\n", "peak_heap_mb", peakMB)
	fmt.Fprintf(out, "%-18s %12.4f       (%d failed of %d attempted)\n", "fail_ratio", ratio(float64(chk.failed), float64(chk.attempted)), chk.failed, chk.attempted)
	return map[string]float64{
		"setup_s":          setup,
		"goodput_mb_per_s": goodput,
		"peak_heap_mb":     peakMB,
	}
}

func slotNote(ops, slots int) string {
	if slots == 1 {
		return fmt.Sprintf("median of %d ops", ops)
	}
	return fmt.Sprintf("sum over %d slots of the median op time; %d ops", slots, ops)
}

func perOpSetupNote(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	return fmt.Sprintf(" + median swarm start over %d ops", len(xs))
}

// finish attaches units to vals and the checker's verdict.
func finish(out io.Writer, chk *checker, vals map[string]float64) result {
	res := result{
		Correct:   chk.failed == 0 && chk.attempted > 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   make(map[string]metricValue, len(vals)),
	}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if v, ok := vals[d.name]; ok {
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	for _, msg := range chk.notes {
		fmt.Fprintln(out, "check:", msg)
	}
	return res
}

// layerMetrics fills every per-layer metric; a layer the workload does
// not run reports 0.
func layerMetrics(vals map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.name] = vals[d.name]
	}
	return out
}
