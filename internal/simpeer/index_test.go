package simpeer

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"p2psplice/internal/fault"
	"p2psplice/internal/splicer"
	"p2psplice/internal/trace"
)

// oracleCase draws randomized swarm i of the differential corpus: swarm
// size, upload cap, relaying, selection strategy, CDN, reputation, and a
// random subset of fault and adversary plans, all from the case's own
// seed.
func oracleCase(i int) SwarmConfig {
	rng := rand.New(rand.NewSource(int64(i)))
	leechers := 2 + rng.Intn(39)
	cfg := baseConfig([]int64{96 << 10, 192 << 10, 512 << 10}[rng.Intn(3)])
	cfg.Seed = int64(100 + i)
	cfg.Leechers = leechers
	cfg.JoinSpread = time.Duration(rng.Intn(6)) * time.Second
	cfg.MaxUploadsPerPeer = []int{-1, 1, 4}[rng.Intn(3)]
	cfg.DisableRelay = rng.Intn(3) == 0
	if rng.Intn(2) == 0 {
		cfg.Selection = SelectRarestFirst
	}
	if rng.Intn(3) == 0 {
		cfg.CDN = &CDNAssist{BandwidthBytesPerSec: 256 << 10}
	}
	if rng.Intn(2) == 0 {
		cfg.Reputation = repDefault()
	}
	if rng.Intn(4) == 0 {
		cfg.Churn = ChurnModel{MeanOnline: 30 * time.Second, MinRemaining: leechers / 2}
	}
	cfg.MaxEvents = 5_000_000

	window := func() (start, dur time.Duration) {
		return time.Duration(1+rng.Intn(15)) * time.Second, time.Duration(2+rng.Intn(12)) * time.Second
	}
	var plans []fault.Plan
	if rng.Intn(2) == 0 {
		var nodes []int
		for n := 1; n <= leechers; n += 4 {
			nodes = append(nodes, n)
		}
		plans = append(plans, fault.Churn(cfg.Seed, nodes, time.Minute, 15*time.Second, 3*time.Second))
	}
	if rng.Intn(2) == 0 {
		start, dur := window()
		plans = append(plans, fault.LinkFlap(1+rng.Intn(leechers), start, dur))
	}
	if rng.Intn(3) == 0 {
		start, dur := window()
		plans = append(plans, fault.SeederOutage(start, dur))
	}
	if rng.Intn(3) == 0 {
		start, dur := window()
		plans = append(plans, fault.Corruption(1+rng.Intn(leechers), start, dur, 40))
	}
	// Adversary windows go to distinct leechers: one window per node.
	nodes := rng.Perm(leechers)
	for k, kind := range []fault.AdversaryKind{fault.AdvStaleHave, fault.AdvSlowloris, fault.AdvPolluter, fault.AdvCorrupter} {
		if k >= len(nodes) || rng.Intn(2) == 0 {
			continue
		}
		node := 1 + nodes[k]
		start, dur := window()
		switch kind {
		case fault.AdvStaleHave:
			plans = append(plans, fault.StaleHaveLiar(node, start, dur))
		case fault.AdvSlowloris:
			plans = append(plans, fault.Slowloris(node, start, dur, 2048))
		case fault.AdvPolluter:
			plans = append(plans, fault.Polluter(node, start, dur, 60))
		case fault.AdvCorrupter:
			plans = append(plans, fault.Corrupter(node, start, dur))
		}
	}
	cfg.Faults = fault.Merge(plans...)
	return cfg
}

// describe summarizes a case for failure messages.
func describe(cfg SwarmConfig) string {
	return fmt.Sprintf("leechers=%d cap=%d relay=%v selection=%d cdn=%v rep=%v churn=%v faults=%d",
		cfg.Leechers, cfg.MaxUploadsPerPeer, !cfg.DisableRelay, cfg.Selection, cfg.CDN != nil,
		cfg.Reputation != nil, cfg.Churn.MeanOnline > 0, len(cfg.Faults.Events))
}

// checkIndex verifies the index's invariants: every segment's list holds
// exactly the nodes that could serve it, in ascending ID order, and each
// node's cached link-down and quarantine bits agree with netem and the
// reputation table.
func (s *swarm) checkIndex() error {
	now := s.eng.Now()
	for _, q := range s.peers {
		if q.linkDown != s.net.LinkIsDown(q.node) {
			return fmt.Errorf("peer %d linkDown=%v, netem says %v", q.id, q.linkDown, !q.linkDown)
		}
		if quarantined := now < q.quarUntil; s.rep != nil && quarantined != s.rep.Quarantined(q.id, now) {
			return fmt.Errorf("peer %d quarantined=%v by quarUntil, %v by the table", q.id, quarantined, !quarantined)
		}
	}
	for idx, list := range s.cands {
		var want []*peerState
		for _, q := range s.peers {
			if s.couldServe(q, idx) {
				want = append(want, q)
			}
		}
		if !slices.Equal(list, want) {
			return fmt.Errorf("cands[%d] = %v, want %v", idx, candIDs(list), candIDs(want))
		}
	}
	return nil
}

func candIDs(list []*peerState) []int {
	ids := make([]int, len(list))
	for i, q := range list {
		ids[i] = q.id
	}
	return ids
}

// tracedRun runs cfg with a fresh trace buffer and returns the result and
// the JSONL trace stream. With check set, the index invariant is verified
// after every event.
func tracedRun(t *testing.T, cfg SwarmConfig, segs []SegmentMeta, forceScan, check bool) (*Result, []byte) {
	t.Helper()
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	sw, err := newSwarm(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	sw.forceScan = forceScan
	var res *Result
	if check {
		for n := 0; sw.eng.Step(); n++ {
			if n >= cfg.MaxEvents {
				t.Fatalf("event budget %d exhausted", cfg.MaxEvents)
			}
			if err := sw.checkIndex(); err != nil {
				t.Fatalf("after event %d at %v: %v", n, sw.eng.Now(), err)
			}
		}
		res = sw.finish()
	} else if res, err = sw.run(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := trace.WriteJSONL(&out, buf.Events()); err != nil {
		t.Fatal(err)
	}
	return res, out.Bytes()
}

// TestIndexMatchesScan is the differential oracle for the source index:
// across randomized swarms with fault and adversary plans, the indexed
// run must produce a byte-identical trace stream — every source_pick
// carries its src, so every choice is compared — and an equal Result to
// the same run with forceScan walking every peer. The indexed run also
// checks the index's exact membership and the cached eligibility bits
// after every event, which catches a missed removal that the
// superset-tolerant picks would hide, and a stale cached bit, which
// both modes would read alike.
func TestIndexMatchesScan(t *testing.T) {
	const cases = 24
	segsBy := [][]SegmentMeta{
		segmentsFor(t, splicer.DurationSplicer{Target: 2 * time.Second}, 30*time.Second, 1),
		segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 2),
	}
	picks := 0
	for i := 0; i < cases; i++ {
		cfg := oracleCase(i)
		segs := segsBy[i%len(segsBy)]
		scanRes, scanTrace := tracedRun(t, cfg, segs, true, false)
		idxRes, idxTrace := tracedRun(t, cfg, segs, false, true)
		if !bytes.Equal(scanTrace, idxTrace) {
			a, b := bytes.Split(scanTrace, []byte("\n")), bytes.Split(idxTrace, []byte("\n"))
			for j := 0; j < len(a) && j < len(b); j++ {
				if !bytes.Equal(a[j], b[j]) {
					t.Fatalf("case %d (%s): traces diverge at line %d:\nscan:  %s\nindex: %s", i, describe(cfg), j, a[j], b[j])
				}
			}
			t.Fatalf("case %d (%s): traces differ in length: scan %d lines, index %d", i, describe(cfg), len(a), len(b))
		}
		if !reflect.DeepEqual(scanRes, idxRes) {
			t.Fatalf("case %d (%s): results diverge:\nscan:  %+v\nindex: %+v", i, describe(cfg), scanRes, idxRes)
		}
		picks += bytes.Count(idxTrace, []byte(`"`+trace.EvSourcePick+`"`))
	}
	if picks == 0 {
		t.Fatal("the corpus made no source picks")
	}
	t.Logf("%d swarms, %d source picks identical under index and scan", cases, picks)
}

// BenchmarkHotpathPickSource is the -benchmem gate for source selection:
// `make bench-alloc` fails if it reports nonzero allocs/op. Each op is
// one pickSourceFrom pass in a mid-run swarm state, for the wanted
// segment with the longest candidate list, which holds relaying
// leechers and an open stale-have claimer.
func BenchmarkHotpathPickSource(b *testing.B) {
	segs := segmentsFor(b, splicer.DurationSplicer{Target: 2 * time.Second}, 30*time.Second, 1)
	cfg := baseConfig(192 << 10)
	cfg.Leechers = 24
	cfg.JoinSpread = 4 * time.Second
	cfg.Faults = fault.StaleHaveLiar(3, 2*time.Second, time.Minute)
	sw, err := newSwarm(cfg, segs)
	if err != nil {
		b.Fatal(err)
	}
	sw.eng.RunUntil(9 * time.Second)
	var p *peerState
	idx := -1
	for _, q := range sw.peers[1:] {
		if q.claimsAll() {
			continue
		}
		for i := range sw.segs {
			if q.wanted(i) && relaying(sw.cands[i], i) && (idx < 0 || len(sw.cands[i]) > len(sw.cands[idx])) {
				p, idx = q, i
			}
		}
	}
	if p == nil {
		b.Fatal("no wanted segment has a relaying candidate at the sampled instant")
	}
	if !slices.ContainsFunc(sw.cands[idx], (*peerState).claimsAll) {
		b.Fatal("the stale-have claimer is missing from the candidate list")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pickSink = sw.pickSourceFrom(p, idx, false)
	}
}

// pickSink keeps the benchmarked pick from being optimized away.
var pickSink *peerState

// relaying reports whether some candidate of segment idx is listed for
// an in-flight download of it rather than a held copy or a claim.
func relaying(list []*peerState, idx int) bool {
	for _, q := range list {
		if !q.isSeeder && !q.have[idx] && q.inFlight[idx] != nil && q.inFlight[idx].flow != nil {
			return true
		}
	}
	return false
}
