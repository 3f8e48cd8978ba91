package simpeer

import (
	"cmp"
	"slices"

	"p2psplice/internal/fault"
)

// This file is the per-segment source index. cands[idx] lists, in
// ascending peer ID, every node that could serve segment idx: holders of
// the segment, leechers relaying an in-flight download of it, and nodes
// whose open stale-have or slowloris window claims every segment. Source
// selection and the holder queries walk that list instead of every peer.
//
// Membership is exactly couldServe, re-synced wherever one of its inputs
// changes: a download starting on a netem flow, a download ending without
// the segment (cancel on crash, departure or quarantine, verify-fail
// discard), a segment completing, and an adversary window opening or
// closing. Everything that can change from one instant to the next stays
// out of membership and is checked at pick time: departure, crash, link
// state, quarantine, upload slots, and the relay threshold (no event marks
// a download crossing it, so a relayer is listed from its flow's start).
// Because the list is sorted by ID, the scan's strict comparisons — and so
// its lowest-ID tie-break — carry over unchanged.
//
// forceScan makes every list read return all peers instead: the slow twin
// the differential tests compare the index against.

// claimsAll reports whether q's open adversary window advertises every
// segment (the stale-have and slowloris lure).
//
//lint:hotpath read for every candidate by sourceProgress
func (q *peerState) claimsAll() bool {
	return q.advKind == fault.AdvStaleHave || q.advKind == fault.AdvSlowloris
}

// couldServe reports whether q belongs in cands[idx].
func (s *swarm) couldServe(q *peerState, idx int) bool {
	if q.have[idx] || q.claimsAll() {
		return true
	}
	if s.cfg.DisableRelay || q.isSeeder {
		return false
	}
	d := q.inFlight[idx]
	return d != nil && d.flow != nil
}

// syncCand brings q's membership in cands[idx] up to date with couldServe.
func (s *swarm) syncCand(q *peerState, idx int) {
	i, listed := slices.BinarySearchFunc(s.cands[idx], q.id, byID)
	switch want := s.couldServe(q, idx); {
	case want && !listed:
		s.cands[idx] = slices.Insert(s.cands[idx], i, q)
	case !want && listed:
		s.cands[idx] = slices.Delete(s.cands[idx], i, i+1)
	}
}

// byID orders candidate lists by peer ID.
func byID(q *peerState, id int) int { return cmp.Compare(q.id, id) }

// syncCandAll re-syncs q in every segment's list (adversary windows
// change q's claim on all of them at once).
func (s *swarm) syncCandAll(q *peerState) {
	for idx := range s.cands {
		s.syncCand(q, idx)
	}
}

// candidates returns the nodes to consider as sources of segment idx, in
// ascending ID order: the index list, or every peer under forceScan.
//
//lint:hotpath the candidate set of every pickSourceFrom pass
func (s *swarm) candidates(idx int) []*peerState {
	if s.forceScan {
		return s.peers
	}
	return s.cands[idx]
}

// holderCount counts active peers holding segment idx.
func (s *swarm) holderCount(idx int) int {
	n := 0
	for _, q := range s.candidates(idx) {
		if !q.departed && !q.crashed && q.have[idx] {
			n++
		}
	}
	return n
}

// crashedHolder reports whether a currently-crashed peer holds segment
// idx — the stall-attribution signal for "my source crashed".
func (s *swarm) crashedHolder(idx int) bool {
	for _, q := range s.candidates(idx) {
		if q.crashed && q.have[idx] {
			return true
		}
	}
	return false
}
