package netem

import (
	"math"
	"time"
)

// allocEpsilon absorbs floating-point noise when comparing rates.
const allocEpsilon = 1e-6

// AllocStats counts reallocation work. The swarm-scale benchmarks report
// these alongside wall-clock rates, as deterministic counts of the work
// behind each second.
type AllocStats struct {
	// Reallocs is the number of reallocation passes (each flow event that
	// changes the flow set, a cap, or a link triggers exactly one).
	Reallocs uint64
	// FullReallocs is the number of passes that refilled every component
	// (the ForceFullReallocation oracle mode; the incremental path never
	// widens beyond the dirty components, so outside that mode this stays
	// zero).
	FullReallocs uint64
	// Components is the number of connected components progressively
	// filled across all passes.
	Components uint64
	// FlowsFilled is the number of flow rates recomputed across all
	// passes — the incremental path's unit of work. Under full
	// reallocation this grows by the whole active flow count per event.
	FlowsFilled uint64
}

// AllocStats returns the cumulative reallocation counters.
func (n *Network) AllocStats() AllocStats { return n.stats }

// ForceFullReallocation switches the network between the incremental
// reallocator (default) and the full per-event recompute. The full mode
// is the test oracle: the differential and fuzz tests drive paired
// networks through identical event scripts and assert every flow rate is
// bit-identical between the two modes.
func (n *Network) ForceFullReallocation(on bool) { n.forceFull = on }

// compBound delimits one connected component inside the region scratch
// slices: links [l0:l1) and flows [f0:f1).
type compBound struct {
	l0, l1, f0, f1 int
}

// reallocateOn recomputes max-min fair rates after a flow event whose
// direct effect is confined to links a and b (either may be nil). Only
// the connected components of the flow/link sharing graph that contain a
// dirty link are refilled: progressive filling is a pure function of a
// component's link capacities, per-link flow counts, and flow caps, so a
// component none of whose inputs changed would refill to bit-identical
// rates — skipping it is exact, not approximate. When the dirty
// components span the whole star this degenerates to the full recompute.
func (n *Network) reallocateOn(a, b *link) {
	n.stats.Reallocs++
	if n.forceFull {
		n.reallocateFull()
		return
	}
	n.beginRegion()
	n.collectComponent(a)
	n.collectComponent(b)
	n.fillRegion()
}

// reallocateFull refills every connected component. It is the oracle the
// incremental path is differentially tested against: both run the same
// per-component progressive filling in the same canonical order, so for
// any single component the two paths execute identical floating-point
// operations. The full pass simply never skips a clean component.
func (n *Network) reallocateFull() {
	n.stats.FullReallocs++
	n.beginRegion()
	for _, nd := range n.nodes {
		n.collectComponent(nd.up)
		n.collectComponent(nd.down)
	}
	n.fillRegion()
}

// beginRegion starts a new collection generation and resets the region
// scratch. Generation-stamped marks on links and flows make resets O(1):
// stale marks from earlier passes never compare equal.
//
//lint:hotpath region setup on every flow event; the paired AllocsPerRun test and BenchmarkHotpathReallocate assert 0 allocs/op in steady state
func (n *Network) beginRegion() {
	n.allocGen++
	n.regionLinks = n.regionLinks[:0]
	n.regionFlows = n.regionFlows[:0]
	n.compBounds = n.compBounds[:0]
}

// collectComponent walks the flow/link sharing graph from seed and
// appends its connected component to the region, then sorts the
// component's links by ord and flows by creation ID. The sort makes the
// component's fill order canonical — independent of which dirty link the
// walk entered through — which is what makes the incremental path
// bit-identical to the full recompute. A nil, already-collected, or
// flow-free seed contributes nothing.
//
//lint:hotpath dirty-component discovery on every flow event
func (n *Network) collectComponent(seed *link) {
	if seed == nil || seed.mark == n.allocGen || len(seed.flows) == 0 {
		return
	}
	l0, f0 := len(n.regionLinks), len(n.regionFlows)
	seed.mark = n.allocGen
	n.linkQueue = n.linkQueue[:0]
	//lint:ignore allocfree amortized: region scratch grows to the largest component once and is reused
	n.linkQueue = append(n.linkQueue, seed)
	//lint:ignore allocfree amortized: region scratch grows to the largest component once and is reused
	n.regionLinks = append(n.regionLinks, seed)
	for len(n.linkQueue) > 0 {
		l := n.linkQueue[len(n.linkQueue)-1]
		n.linkQueue = n.linkQueue[:len(n.linkQueue)-1]
		for _, f := range l.flows {
			if f.mark == n.allocGen {
				continue
			}
			f.mark = n.allocGen
			//lint:ignore allocfree amortized: region scratch grows to the largest component once and is reused
			n.regionFlows = append(n.regionFlows, f)
			if f.lup.mark != n.allocGen {
				f.lup.mark = n.allocGen
				//lint:ignore allocfree amortized: region scratch grows to the largest component once and is reused
				n.regionLinks = append(n.regionLinks, f.lup)
				//lint:ignore allocfree amortized: region scratch grows to the largest component once and is reused
				n.linkQueue = append(n.linkQueue, f.lup)
			}
			if f.ldown.mark != n.allocGen {
				f.ldown.mark = n.allocGen
				//lint:ignore allocfree amortized: region scratch grows to the largest component once and is reused
				n.regionLinks = append(n.regionLinks, f.ldown)
				//lint:ignore allocfree amortized: region scratch grows to the largest component once and is reused
				n.linkQueue = append(n.linkQueue, f.ldown)
			}
		}
	}
	sortLinksByOrd(n.regionLinks[l0:])
	sortFlowsByID(n.regionFlows[f0:])
	//lint:ignore allocfree amortized: component-bound scratch grows to the high-water mark once and is reused
	n.compBounds = append(n.compBounds, compBound{l0: l0, l1: len(n.regionLinks), f0: f0, f1: len(n.regionFlows)})
}

// fillRegion accrues progress for every flow in the region, refills each
// collected component, and applies the resulting rates in global flow-ID
// order. The apply order matters: rescheduled completion timers consume
// engine sequence numbers, which break FIFO ties among simultaneous
// events, so both reallocation paths must reschedule in the same order.
func (n *Network) fillRegion() {
	for _, f := range n.regionFlows {
		n.advance(f)
	}
	for _, c := range n.compBounds {
		n.fillComponent(n.regionLinks[c.l0:c.l1], n.regionFlows[c.f0:c.f1])
	}
	n.stats.Components += uint64(len(n.compBounds))
	n.stats.FlowsFilled += uint64(len(n.regionFlows))
	sortFlowsByID(n.regionFlows)
	n.applyRates(n.regionFlows)
}

// fillComponent runs progressive filling (max-min fairness) over one
// connected component: links sorted by ord, flows sorted by creation ID.
// Each round finds the minimum per-flow share among unsaturated links;
// flows whose own cap (slow-start ramp, Mathis loss bound, freezes, down
// links) is below that share are rate-limited by the cap, not the
// network, so they are fixed first and the round repeats; otherwise the
// bottleneck link saturates and its flows get the fair share. Many
// concurrent flows through one shaped link waste capacity on
// retransmissions and synchronized loss, so each link's effective
// capacity is derated by its concurrency before filling.
//
//lint:hotpath the incremental reallocator's inner loop; runs once per dirty component per flow event
func (n *Network) fillComponent(links []*link, flows []*Flow) {
	for _, l := range links {
		excess := len(l.flows) - n.cfg.ConcurrencyFreeFlows
		if excess < 0 {
			excess = 0
		}
		l.remaining = l.capacity / (1 + n.cfg.ConcurrencyPenalty*float64(excess))
		l.unfixed = len(l.flows)
	}
	nFixed := 0
	for nFixed < len(flows) {
		minShare := math.Inf(1)
		var bottleneck *link
		for _, l := range links {
			if l.unfixed == 0 {
				continue
			}
			share := l.remaining / float64(l.unfixed)
			if share < minShare-allocEpsilon {
				minShare = share
				bottleneck = l
			}
		}
		if bottleneck == nil {
			// No unfixed flow traverses any link; nothing left to do.
			break
		}
		anyCapped := false
		for _, f := range flows {
			if f.fixMark == n.allocGen {
				continue
			}
			if f.capLimit() <= minShare+allocEpsilon {
				n.fixFlow(f, f.capLimit())
				nFixed++
				anyCapped = true
			}
		}
		if anyCapped {
			continue
		}
		for _, f := range flows {
			if f.fixMark == n.allocGen {
				continue
			}
			if f.lup == bottleneck || f.ldown == bottleneck {
				n.fixFlow(f, minShare)
				nFixed++
			}
		}
	}
}

// fixFlow pins f's rate for this pass and charges it to both links.
//
//lint:hotpath called once per flow per fill
func (n *Network) fixFlow(f *Flow, rate float64) {
	f.fixMark = n.allocGen
	f.pendingRate = rate
	f.lup.remaining -= rate
	if f.lup.remaining < 0 {
		f.lup.remaining = 0
	}
	f.lup.unfixed--
	f.ldown.remaining -= rate
	if f.ldown.remaining < 0 {
		f.ldown.remaining = 0
	}
	f.ldown.unfixed--
}

// applyRates installs the computed rates and reschedules completion
// events. Flows whose rate is unchanged (within epsilon) keep their
// existing completion timer, so clean refills consume no engine sequence
// numbers — the property that lets the full oracle and the incremental
// path stay on identical trajectories.
func (n *Network) applyRates(flows []*Flow) {
	for _, f := range flows {
		rate := 0.0
		if f.fixMark == n.allocGen {
			rate = f.pendingRate
		}
		if math.Abs(rate-f.rate) <= allocEpsilon*math.Max(1, f.rate) && f.completion != nil && !f.completion.Cancelled() {
			continue // unchanged; keep the existing completion event
		}
		f.rate = rate
		f.anchorAt = n.eng.Now()
		f.anchorRemaining = f.remaining
		f.completion.Cancel()
		f.completion = nil
		if math.IsInf(f.remaining, 1) {
			continue // unbounded cross-traffic never completes
		}
		if rate <= allocEpsilon {
			continue // starved; a later reallocation will revive it
		}
		delay := time.Duration(f.remaining / rate * float64(time.Second))
		f.completion = n.eng.Schedule(delay, f.complete)
	}
}

// sortLinksByOrd heap-sorts links in place by their creation order
// (node ID, uplink before downlink). Heapsort keeps the hot path
// allocation-free; ord values are unique, so the lack of stability
// cannot introduce nondeterminism.
//
//lint:hotpath canonical link ordering for every collected component
func sortLinksByOrd(ls []*link) {
	k := len(ls)
	for i := k/2 - 1; i >= 0; i-- {
		siftLink(ls, i, k)
	}
	for i := k - 1; i > 0; i-- {
		ls[0], ls[i] = ls[i], ls[0]
		siftLink(ls, 0, i)
	}
}

//lint:hotpath heapsort helper for sortLinksByOrd
func siftLink(ls []*link, i, k int) {
	for {
		c := 2*i + 1
		if c >= k {
			return
		}
		if c+1 < k && ls[c+1].ord > ls[c].ord {
			c++
		}
		if ls[i].ord >= ls[c].ord {
			return
		}
		ls[i], ls[c] = ls[c], ls[i]
		i = c
	}
}

// sortFlowsByID heap-sorts flows in place by creation ID. Flow IDs are
// unique, so the result is deterministic.
//
//lint:hotpath canonical flow ordering for every collected component and the global apply pass
func sortFlowsByID(fs []*Flow) {
	k := len(fs)
	for i := k/2 - 1; i >= 0; i-- {
		siftFlow(fs, i, k)
	}
	for i := k - 1; i > 0; i-- {
		fs[0], fs[i] = fs[i], fs[0]
		siftFlow(fs, 0, i)
	}
}

//lint:hotpath heapsort helper for sortFlowsByID
func siftFlow(fs []*Flow, i, k int) {
	for {
		c := 2*i + 1
		if c >= k {
			return
		}
		if c+1 < k && fs[c+1].id > fs[c].id {
			c++
		}
		if fs[i].id >= fs[c].id {
			return
		}
		fs[i], fs[c] = fs[c], fs[i]
		i = c
	}
}
