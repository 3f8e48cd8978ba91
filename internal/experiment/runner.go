package experiment

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"p2psplice/internal/core"
	"p2psplice/internal/metrics"
	"p2psplice/internal/simpeer"
	"p2psplice/internal/trace"
)

// This file is the parallel experiment runner. Every figure decomposes into
// independent cells — one emulated swarm per (series × bandwidth × run) —
// and each cell already owns everything that determines its result: the
// spliced segment list, the swarm config, and its seed (BaseSeed + run).
// Cells therefore run on a bounded worker pool in any order and merge back
// positionally, which keeps the output bit-identical to the serial path
// (DESIGN.md §7; the equivalence and golden tests in this package enforce
// it).

// cell is one independent simulation unit: a single (series × bandwidth ×
// run) point of a figure sweep.
type cell struct {
	// label attributes failures inside a parallel fan-out ("Figure 2/gop").
	label       string
	segs        []simpeer.SegmentMeta
	bandwidthKB int64
	policy      core.Policy
	mod         func(*simpeer.SwarmConfig)
	// run indexes the repetition; the cell's swarm runs with seed
	// BaseSeed + run.
	run int
}

// cellOut is one cell's summary metrics.
type cellOut struct {
	stalls      float64
	stallSecs   float64
	startupSecs float64
}

// schemeFromLabel extracts the splicing-scheme series name from a cell
// label for the segment-histogram label: "Figure 2/gop" → "gop",
// "Figure 6/adaptive@256" → "adaptive", "Churn/4s/low" → "4s".
func schemeFromLabel(label string) string {
	parts := strings.Split(label, "/")
	if len(parts) < 2 {
		return ""
	}
	scheme := parts[1]
	if i := strings.IndexByte(scheme, '@'); i >= 0 {
		scheme = scheme[:i]
	}
	return scheme
}

// runCell executes one emulated swarm, writing trace artifacts when
// Params.TraceDir is set.
func (p Params) runCell(c cell) (cellOut, error) {
	cfg := p.swarmConfig(c.bandwidthKB, c.policy, p.BaseSeed+int64(c.run))
	if c.mod != nil {
		c.mod(&cfg)
	}
	if p.Metrics != nil {
		cfg.Metrics = p.Metrics
		cfg.MetricsScheme = schemeFromLabel(c.label)
	}
	var buf *trace.Buffer
	if p.TraceDir != "" {
		buf = trace.NewBuffer()
		cfg.Tracer = trace.New(buf)
	}
	res, err := simpeer.RunSwarm(cfg, c.segs)
	if err != nil {
		return cellOut{}, fmt.Errorf("experiment: %s: bandwidth %d kB/s (run %d): %w",
			c.label, c.bandwidthKB, c.run, err)
	}
	if buf != nil {
		if err := writeCellTrace(p.TraceDir, c, buf.Events()); err != nil {
			return cellOut{}, err
		}
	}
	sum := res.Summary()
	return cellOut{
		stalls:      sum.MeanStalls,
		stallSecs:   sum.MeanStallSeconds,
		startupSecs: sum.MeanStartupSeconds,
	}, nil
}

// effectiveWorkers resolves the pool size: Params.Workers when positive,
// otherwise GOMAXPROCS.
func (p Params) effectiveWorkers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runCells executes every cell on a bounded worker pool and returns results
// in cell order. Workers=1 (or a single cell) takes a plain serial loop.
// Errors are selected by cell index, not completion order, so the reported
// failure is the same whichever worker hits it first.
func (p Params) runCells(cells []cell) ([]cellOut, error) {
	out := make([]cellOut, len(cells))
	workers := p.effectiveWorkers()
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers <= 1 {
		for i, c := range cells {
			o, err := p.runCell(c)
			if err != nil {
				return nil, err
			}
			out[i] = o
		}
		return out, nil
	}
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				out[i], errs[i] = p.runCell(cells[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweepSpec describes one figure series: a prepared segment list swept over
// a bandwidth axis under one policy.
type sweepSpec struct {
	// name keys the series in FigureResult.Values.
	name string
	// label attributes cell failures ("Figure 4/2s segment").
	label      string
	segs       []simpeer.SegmentMeta
	policy     core.Policy
	mod        func(*simpeer.SwarmConfig)
	bandwidths []int64
}

// runSweeps fans every (series × bandwidth × run) cell of specs out on the
// worker pool and merges the results back positionally: points[i][j] is
// spec i at bandwidth j, averaged over Runs exactly as the serial runner
// averaged (same accumulation order, so the floats are bit-identical).
func (p Params) runSweeps(specs []sweepSpec) ([][]Point, error) {
	var cells []cell
	for _, s := range specs {
		for _, bw := range s.bandwidths {
			for r := 0; r < p.Runs; r++ {
				cells = append(cells, cell{
					label:       s.label,
					segs:        s.segs,
					bandwidthKB: bw,
					policy:      s.policy,
					mod:         s.mod,
					run:         r,
				})
			}
		}
	}
	outs, err := p.runCells(cells)
	if err != nil {
		return nil, err
	}
	points := make([][]Point, len(specs))
	k := 0
	for i, s := range specs {
		points[i] = make([]Point, len(s.bandwidths))
		for j, bw := range s.bandwidths {
			points[i][j] = averageCells(bw, outs[k:k+p.Runs])
			k += p.Runs
		}
	}
	return points, nil
}

// averageCells folds one point's repetitions into the figure measurement,
// with the same per-metric accumulation the serial runner used.
func averageCells(bandwidthKB int64, outs []cellOut) Point {
	stalls := make([]float64, len(outs))
	stallSecs := make([]float64, len(outs))
	startups := make([]float64, len(outs))
	for i, o := range outs {
		stalls[i] = o.stalls
		stallSecs[i] = o.stallSecs
		startups[i] = o.startupSecs
	}
	return Point{
		BandwidthKB:  bandwidthKB,
		Stalls:       metrics.Mean(stalls),
		StallSeconds: metrics.Mean(stallSecs),
		StartupSecs:  metrics.Mean(startups),
	}
}
