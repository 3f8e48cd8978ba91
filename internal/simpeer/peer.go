package simpeer

import (
	"fmt"
	"sort"
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/fault"
	"p2psplice/internal/netem"
	"p2psplice/internal/player"
	"p2psplice/internal/reputation"
	"p2psplice/internal/trace"
)

// sortedKeys returns the map's keys in ascending order for deterministic
// iteration.
func sortedKeys(m map[int]*download) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// peerState is one node's swarm state (seeder or leecher).
type peerState struct {
	id       int
	rate     int64 // configured access rate (oracle policy input)
	node     netem.NodeID
	isSeeder bool
	isCDN    bool

	have      []bool
	haveCount int

	// Leecher-only fields.
	player   *player.Player
	inFlight map[int]*download // segment index -> active download
	uploads  int               // concurrent uploads this node serves
	est      *core.BandwidthEstimator
	estGuess int64
	joined   time.Duration
	departed bool

	// Crash state (fault plans only). A crashed peer keeps its segment
	// store across rejoin (process-restart model) but serves and fetches
	// nothing while down. lastCrashAt/rejoinedAt bound the most recent
	// outage so retroactively-observed player stalls inside the window
	// attribute to the crash.
	crashed     bool
	crashes     int
	lastCrashAt time.Duration
	rejoinedAt  time.Duration
	// Link-flap window bounds, kept for the same retroactive stall
	// attribution (netem owns the live down/up flag).
	linkDowns      int
	lastLinkDownAt time.Duration
	linkUpAt       time.Duration
	// Corruption window state (fault plans only). corruptPct > 0 while a
	// window is open on this peer; the bounds and discard counters give
	// retroactively-observed stalls inside the window their cause.
	corruptPct      float64
	corruptStartAt  time.Duration
	corruptEndAt    time.Duration
	corruptDiscards int
	lastDiscardAt   time.Duration
	// segAttempts counts download attempts per segment so every retry of
	// a discarded segment gets a fresh deterministic corruption draw
	// (a fixed per-segment draw would livelock at high percentages).
	segAttempts map[int]int
	// Adversary window state (fault plans only). advKind != AdvNone while
	// a window is open on this peer — misbehavior AS A SOURCE: corrupter
	// and polluter serves fail verification at the requester, stale-have
	// and slowloris serves hang as pending downloads until the serve
	// timeout. adversarial is sticky so collection can exclude the peer's
	// own playback from honest-swarm samples.
	advKind     fault.AdversaryKind
	advPct      float64 // polluter corruption probability, percent
	advTrickle  int64   // slowloris advertised trickle rate (trace metadata)
	advStartAt  time.Duration
	advEndAt    time.Duration
	adversarial bool
	// Burst-loss window observations. Observer-owned like openStall*:
	// written only by onLossState (attached only when tracing or
	// metering) and read only by stall attribution, never by scheduling.
	geBursts int
	geBadAt  time.Duration
	geGoodAt time.Duration
	// retryAttempt counts consecutive blocked fills for backoff; any
	// successful launch resets it.
	retryAttempt int

	// lastSrc is the source of this peer's most recent download. Peers keep
	// stable relationships (the unchoke pairs of a piece-level protocol stay
	// put for tens of seconds), which keeps the distribution chain — and
	// each peer's pipeline depth in it — stable from segment to segment.
	lastSrc *peerState
	// uploading counts, per segment index, how many copies of that segment
	// this node is currently sending. A node never sends the same segment
	// twice in parallel: the second requester chains off the first copy
	// (see pickSource), which is how the piece-level protocol behaves.
	uploading map[int]int
	// retryPending marks a scheduled source-retry so fill does not stack
	// duplicate timers while the peer waits for an eligible source.
	retryPending bool

	// openStallAt/openStallCause track the in-progress stall for the QoE
	// histograms. Observer-owned: written only from onPlayerTransition
	// (attached only when tracing or metering) and read by nothing in the
	// scheduling path, so maintaining them cannot perturb the run.
	openStallAt    time.Duration
	openStallCause string
}

// download is one in-flight segment transfer with its chosen source.
// flow is nil for a pending adversary serve (stale-have or slowloris):
// no bytes move, and the entry is reaped by the serve-timeout event;
// pending records which adversary kind opened it, for attribution.
type download struct {
	flow    *netem.Flow
	src     *peerState
	pending fault.AdversaryKind
}

// bandwidth returns the B fed into the pooling policy.
func (s *swarm) bandwidth(p *peerState) int64 {
	if s.cfg.OracleBandwidth {
		if p.rate > 0 {
			return p.rate
		}
		return s.cfg.BandwidthBytesPerSec
	}
	if b := p.est.Estimate(); b > 0 {
		return b
	}
	return p.estGuess
}

// wanted reports whether p still needs segment idx and is not fetching it.
func (p *peerState) wanted(idx int) bool {
	if p.have[idx] {
		return false
	}
	_, fetching := p.inFlight[idx]
	return !fetching
}

// nextWanted returns the index of the next segment to request, or -1.
func (s *swarm) nextWanted(p *peerState) int {
	first := -1
	for idx := 0; idx < len(s.segs); idx++ {
		if !p.wanted(idx) {
			continue
		}
		if first == -1 {
			first = idx
		}
		if s.cfg.Selection == SelectSequential {
			return idx
		}
		break
	}
	if first == -1 || s.cfg.Selection != SelectRarestFirst {
		return first
	}
	// Rarest-first within a lookahead window of wanted segments.
	window := s.cfg.RarestWindow
	if window <= 0 {
		window = 8
	}
	best, bestHolders := -1, int(^uint(0)>>1)
	seen := 0
	for idx := first; idx < len(s.segs) && seen < window; idx++ {
		if !p.wanted(idx) {
			continue
		}
		seen++
		holders := s.holderCount(idx)
		if holders > 0 && holders < bestHolders {
			best, bestHolders = idx, holders
		}
	}
	if best == -1 {
		return first
	}
	return best
}

// holderCount counts active peers holding segment idx.
func (s *swarm) holderCount(idx int) int {
	n := 0
	for _, q := range s.peers {
		if !q.departed && !q.crashed && q.have[idx] {
			n++
		}
	}
	return n
}

// crashedHolder reports whether a currently-crashed peer holds segment
// idx — the stall-attribution signal for "my source crashed".
func (s *swarm) crashedHolder(idx int) bool {
	for _, q := range s.peers {
		if q.crashed && q.have[idx] {
			return true
		}
	}
	return false
}

// uploadSlots resolves the per-peer upload cap: the configured value, the
// default of 4 when unset, or 0 (unlimited) when negative.
func (s *swarm) uploadSlots() int {
	switch {
	case s.cfg.MaxUploadsPerPeer > 0:
		return s.cfg.MaxUploadsPerPeer
	case s.cfg.MaxUploadsPerPeer < 0:
		return 0
	default:
		return 4
	}
}

// sourceProgress returns how much of segment idx the candidate q can serve:
// 1.0 for a full holder, the download progress for a relaying leecher, and
// -1 if q cannot serve the segment at all.
func (s *swarm) sourceProgress(q *peerState, idx int) float64 {
	// A stale-have liar (or slowloris) claims every segment while its
	// window is open — that is the attack: requesters believe the HAVE
	// and assign it downloads that will only die by serve timeout.
	if q.advKind == fault.AdvStaleHave || q.advKind == fault.AdvSlowloris {
		return 1
	}
	if q.have[idx] {
		return 1
	}
	if s.cfg.DisableRelay || q.isSeeder {
		return -1
	}
	d, ok := q.inFlight[idx]
	if !ok || d.flow == nil {
		return -1
	}
	size := d.flow.Size()
	if size <= 0 {
		return -1
	}
	progress := 1 - float64(d.flow.Remaining())/float64(size)
	threshold := s.cfg.RelayThreshold
	if threshold <= 0 {
		threshold = defaultRelayThreshold
	}
	if progress < threshold {
		return -1
	}
	return progress
}

// defaultRelayThreshold is a couple of 16 kB pieces into a typical segment.
const defaultRelayThreshold = 0.02

// sourceRetryDelay is how soon a peer that found no eligible source looks
// again. It stands in for the continuous per-piece re-evaluation of the real
// protocol (there is no protocol event for "a relay crossed its threshold").
const sourceRetryDelay = 250 * time.Millisecond

// eligible reports whether q can serve segment idx to p right now.
// allowQuarantined opens the sole-source escape hatch: the second
// selection pass considers quarantined sources rather than sacrifice
// liveness (a fully quarantined swarm must still drain off its one
// honest seeder — or, at worst, off the quarantined peers themselves).
func (s *swarm) eligible(p, q *peerState, idx int, allowQuarantined bool) bool {
	if q == p || q.departed || q.crashed || s.net.LinkIsDown(q.node) {
		return false
	}
	if !allowQuarantined && s.rep != nil && s.rep.Quarantined(q.id, s.eng.Now()) {
		return false
	}
	if s.sourceProgress(q, idx) < 0 {
		return false
	}
	if cap := s.uploadSlots(); cap > 0 && q.uploads >= cap {
		return false
	}
	// q already sending this segment to someone: a duplicate upload would
	// split the frontier rate. The requester chains off the in-flight copy
	// once it crosses the relay threshold.
	return q.uploading[idx] == 0
}

// pickSource chooses the uploader for segment idx: non-quarantined swarm
// sources first, then the CDN fallback, then — only when reputation is
// active and nothing else can serve — quarantined sources (the liveness
// escape hatch). With reputation disabled this is exactly the legacy
// selection.
func (s *swarm) pickSource(p *peerState, idx int) *peerState {
	if src := s.pickSourceFrom(p, idx, false); src != nil {
		return src
	}
	if s.cdn != nil && s.cdnEligible(p) {
		return s.cdn
	}
	if s.rep != nil {
		return s.pickSourceFrom(p, idx, true)
	}
	return nil
}

// pickSourceFrom runs one selection pass: the previous source if it is
// still eligible (stable unchoke relationships keep the distribution
// chain, and every peer's pipeline depth in it, steady across segments),
// otherwise the least-loaded eligible source, ties broken by higher relay
// progress and then by lowest peer ID (deterministic). The CDN, when
// configured, is a fallback only: swarm sources offload it (the paper's
// hybrid architecture serves "by peers as well as a CDN").
func (s *swarm) pickSourceFrom(p *peerState, idx int, allowQuarantined bool) *peerState {
	if p.lastSrc != nil && !p.lastSrc.isCDN && s.eligible(p, p.lastSrc, idx, allowQuarantined) {
		return p.lastSrc
	}
	var best *peerState
	var bestProgress float64
	for _, q := range s.peers {
		if !s.eligible(p, q, idx, allowQuarantined) {
			continue
		}
		progress := s.sourceProgress(q, idx)
		if best == nil || q.uploads < best.uploads ||
			(q.uploads == best.uploads && progress > bestProgress) {
			best, bestProgress = q, progress
		}
	}
	return best
}

// cdnEligible enforces the paper's hybrid rule: a client downloads at most
// one segment at a time from the CDN.
func (s *swarm) cdnEligible(p *peerState) bool {
	for _, d := range p.inFlight {
		if d.src.isCDN {
			return false
		}
	}
	return true
}

// fill tops up p's download pool according to its policy. It is called on
// join and after every event that could change the decision (completion,
// cancellation, departure); when a wanted segment has no eligible source it
// schedules a short retry.
func (s *swarm) fill(p *peerState) {
	if p.isSeeder || p.departed || p.crashed || s.net.LinkIsDown(p.node) {
		return
	}
	now := s.eng.Now()
	next := s.nextWanted(p)
	if next == -1 {
		return // everything downloaded or in flight
	}
	b := s.bandwidth(p)
	buffered := p.player.BufferedAhead(now)
	segBytes := s.segs[next].Bytes
	target := s.cfg.Policy.PoolSize(b, buffered, segBytes)
	s.sm.poolK.Observe(int64(target))
	inFlightBefore := len(p.inFlight)
	if inFlightBefore >= target {
		return
	}
	// The pool is the next `target` wanted segments; request every one with
	// an eligible source, skipping over segments that are momentarily
	// sourceless so a fixed pool still pipelines.
	blocked := false
	launched := 0
	for idx := next; idx < len(s.segs) && len(p.inFlight) < target; idx++ {
		if !p.wanted(idx) {
			continue
		}
		if src := s.pickSource(p, idx); src != nil {
			s.startDownload(p, src, idx)
			launched++
		} else {
			blocked = true
		}
	}
	if launched > 0 {
		p.retryAttempt = 0
	}
	if s.cfg.Tracer.Enabled() {
		flag := int64(0)
		if blocked {
			flag = 1
		}
		s.emit(p.id, next, trace.CatPool, trace.EvPoolFill,
			trace.Int64("bandwidth", b),
			trace.Int64("buffered_us", buffered.Microseconds()),
			trace.Int64("seg_bytes", segBytes),
			trace.Int64("target", int64(target)),
			trace.Int64("inflight", int64(inFlightBefore)),
			trace.Int64("launched", int64(launched)),
			trace.Int64("blocked", flag))
	}
	if blocked && !p.retryPending {
		p.retryPending = true
		// Legacy fixed retry unless backoff is opted in: capped exponential
		// with deterministic jitter (a pure hash of seed/peer/attempt, never
		// the engine RNG, so enabling it perturbs no other draw).
		delay := sourceRetryDelay
		attempt := 0
		if s.cfg.RetryBackoff.Enabled() {
			attempt = p.retryAttempt
			delay = s.cfg.RetryBackoff.Delay(s.cfg.Seed, p.id, attempt)
			p.retryAttempt++
		}
		if s.cfg.Tracer.Enabled() {
			s.emit(p.id, next, trace.CatPool, trace.EvSourceRetry,
				trace.Int64("delay_us", delay.Microseconds()),
				trace.Int64("attempt", int64(attempt)))
		}
		s.eng.Schedule(delay, func() {
			p.retryPending = false
			if !p.departed {
				s.fill(p)
			}
		})
	}
}

// startDownload launches one segment transfer.
func (s *swarm) startDownload(p, src *peerState, idx int) {
	if s.cfg.Trace {
		fmt.Printf("%8.2fs peer%d <- peer%d seg%d (srcUploads=%d inflight=%d T=%v)\n",
			s.eng.Now().Seconds(), p.id, src.id, idx, src.uploads, len(p.inFlight),
			p.player.BufferedAhead(s.eng.Now()).Round(100*time.Millisecond))
	}
	src.uploads++
	src.uploading[idx]++
	// A stale-have or slowloris source accepted the request but will never
	// deliver the segment inside the serve timeout: model the hang as a
	// pending download with no netem flow, reaped by a scheduled timeout.
	// (A slowloris trickles real bytes, but a trickle that cannot finish
	// before the timeout is indistinguishable from silence in the fluid
	// model; the trickle rate is trace metadata.)
	if src.advKind == fault.AdvStaleHave || src.advKind == fault.AdvSlowloris {
		d := &download{src: src, pending: src.advKind}
		p.inFlight[idx] = d
		p.lastSrc = src
		if s.cfg.Tracer.Enabled() {
			s.emit(p.id, idx, trace.CatPool, trace.EvSourcePick,
				trace.Int64("flow", -1),
				trace.Int64("src", int64(src.id)))
		}
		s.eng.Schedule(s.serveTimeout(), func() { s.onServeTimeout(p, src, idx, d) })
		return
	}
	opts := netem.TransferOptions{ReuseConnection: !s.cfg.FreshConnectionPerSegment}
	flow, err := s.net.StartTransfer(src.node, p.node, s.segs[idx].Bytes, opts,
		func(f *netem.Flow) { s.onDownloadComplete(p, src, idx, f) })
	if err != nil {
		// Unreachable: nodes and sizes are validated at setup.
		panic("simpeer: start transfer: " + err.Error())
	}
	p.inFlight[idx] = &download{flow: flow, src: src}
	p.lastSrc = src
	if s.cfg.Tracer.Enabled() {
		s.emit(p.id, idx, trace.CatPool, trace.EvSourcePick,
			trace.Int64("flow", int64(flow.ID())),
			trace.Int64("src", int64(src.id)))
	}
}

// defaultServeTimeout bounds how long a pending request may hang before
// the requester gives up on the source — behavior that exists with or
// without reputation (otherwise a stale-have liar would pin its victims
// forever).
const defaultServeTimeout = 4 * time.Second

// serveTimeout resolves the pending-request timeout.
func (s *swarm) serveTimeout() time.Duration {
	if s.cfg.Reputation != nil && s.cfg.Reputation.ServeTimeout > 0 {
		return s.cfg.Reputation.ServeTimeout
	}
	return defaultServeTimeout
}

// onServeTimeout reaps a pending download whose source never delivered:
// the segment returns to the pool, the source is charged (stale-have for
// a silent liar, slow-serve for a slowloris trickle), and the requester
// refills immediately.
func (s *swarm) onServeTimeout(p, src *peerState, idx int, d *download) {
	if p.inFlight[idx] != d {
		return // already reaped by crash/departure teardown
	}
	delete(p.inFlight, idx)
	src.uploads--
	src.uploading[idx]--
	if s.cfg.Tracer.Enabled() {
		s.emit(p.id, idx, trace.CatPool, trace.EvServeTimeout,
			trace.Int64("src", int64(src.id)),
			trace.Str("kind", d.pending.String()))
	}
	obs := reputation.ObsStaleHave
	if d.pending == fault.AdvSlowloris {
		obs = reputation.ObsSlowServe
	}
	s.observeRep(src, obs)
	if !p.departed && !p.crashed {
		s.fill(p)
	}
}

// onDownloadComplete handles a finished segment transfer.
func (s *swarm) onDownloadComplete(p, src *peerState, idx int, f *netem.Flow) {
	if s.cfg.Trace {
		fmt.Printf("%8.2fs peer%d DONE seg%d from peer%d in %.2fs (%.0f B/s)\n",
			s.eng.Now().Seconds(), p.id, idx, src.id, f.Elapsed().Seconds(),
			float64(f.Size())/f.Elapsed().Seconds())
	}
	src.uploads--
	src.uploading[idx]--
	// k counts the finishing flow too: it is this peer's concurrency while
	// the segment was in transit.
	k := int64(len(p.inFlight))
	delete(p.inFlight, idx)
	if p.departed {
		return
	}
	now := s.eng.Now()
	// Eq. 1 wants the peer's aggregate download bandwidth B, but one flow
	// of a k-way pool delivers only ~B/k: feeding per-flow throughput into
	// the estimator made it converge to B/k, inflating the pool size and
	// over-subscribing the access link. Scaling the observed bytes by the
	// in-flight count recovers the aggregate rate — the emulation twin of
	// the real stack's core.AggregateMeter.
	if k < 1 {
		k = 1
	}
	p.est.Observe(f.Size()*k, f.Elapsed())
	// Inside a corruption window the bytes arrive (the estimator above
	// sees real link throughput) but the segment can fail container
	// checksum verification, in which case it goes back to the pool and
	// is fetched again. Whether THIS attempt is corrupted is a pure hash
	// of (seed, peer, segment, attempt) — see fault.CorruptDraw — so the
	// outcome is identical across runs and -workers values and consumes
	// no engine randomness. An adversarial source fails verification the
	// same way: always for a corrupter, per-attempt via the equally pure
	// fault.PolluteDraw for a polluter. Either way the requester's
	// inference is the same — "this source served me garbage" — so the
	// source is charged a reputation verify-fail.
	advSrc := src.advKind == fault.AdvCorrupter || src.advKind == fault.AdvPolluter
	if (p.corruptPct > 0 || advSrc) && !p.have[idx] {
		attempt := p.segAttempts[idx]
		p.segAttempts[idx] = attempt + 1
		discard := false
		if p.corruptPct > 0 && fault.CorruptDraw(s.cfg.Seed, p.id, idx, attempt)*100 < p.corruptPct {
			discard = true
			p.corruptDiscards++
			p.lastDiscardAt = now
		}
		if !discard && advSrc {
			discard = src.advKind == fault.AdvCorrupter ||
				fault.PolluteDraw(s.cfg.Seed, src.id, p.id, idx, attempt)*100 < src.advPct
		}
		if discard {
			if s.cfg.Tracer.Enabled() {
				s.emit(p.id, idx, trace.CatPool, trace.EvVerifyFail,
					trace.Int64("attempt", int64(attempt)),
					trace.Int64("src", int64(src.id)))
			}
			s.observeRep(src, reputation.ObsVerifyFail)
			// Not a completion: no segment metrics, no have/player update.
			// Refill so the re-request launches immediately.
			s.fill(p)
			return
		}
	}
	s.observeRepSuccess(src, f)
	s.sm.segSeconds.ObserveDuration(f.Elapsed())
	s.sm.segBytes.Observe(f.Size())
	if s.cfg.Tracer.Enabled() {
		s.emit(p.id, idx, trace.CatPool, trace.EvSegComplete,
			trace.Int64("bytes", f.Size()),
			trace.Int64("elapsed_us", f.Elapsed().Microseconds()),
			trace.Int64("src", int64(src.id)))
	}
	if !p.have[idx] {
		p.have[idx] = true
		p.haveCount++
	}
	if err := p.player.OnSegmentComplete(idx, now); err != nil {
		panic("simpeer: segment complete: " + err.Error()) // unreachable
	}
	// New availability can unblock any peer; refill everyone (p included).
	s.fillAll()
	// Once every active leecher holds every segment, background traffic has
	// served its purpose: cancel it so the simulation can drain.
	if len(s.cross) > 0 && s.allDownloadsDone() {
		for _, f := range s.cross {
			f.Cancel()
		}
		s.cross = nil
	}
}

// allDownloadsDone reports whether every non-departed leecher holds every
// segment.
func (s *swarm) allDownloadsDone() bool {
	for _, q := range s.peers[1:] {
		if q.departed {
			continue
		}
		if q.haveCount != len(s.segs) {
			return false
		}
	}
	return true
}
