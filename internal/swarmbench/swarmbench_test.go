package swarmbench

import "testing"

// TestScaleDeterminism10k asserts a 10k-peer swarm run is byte-identical
// — same digest, events, completions, virtual time — across repeated runs
// and across worker counts. Workers only change which goroutine simulates
// which shard; the digest combines shard digests in shard order, so any
// scheduling-order leak into the result shows up here.
func TestScaleDeterminism10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-peer determinism run skipped in -short mode")
	}
	base := Config{Peers: 10_000, Shards: 8, Seed: 42}

	var ref Result
	for i, workers := range []int{4, 1, 4, 8} {
		cfg := base
		cfg.Workers = workers
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("run %d (workers=%d): %v", i, workers, err)
		}
		if got.Truncated {
			t.Fatalf("run %d (workers=%d): truncated without a MaxEvents budget", i, workers)
		}
		if i == 0 {
			ref = got
			if ref.Digest == 0 || ref.Completed == 0 || ref.Events == 0 {
				t.Fatalf("degenerate reference run: %+v", ref)
			}
			continue
		}
		if got != ref {
			t.Errorf("run %d (workers=%d) diverged:\n got %+v\nwant %+v", i, workers, got, ref)
		}
	}
	if ref.Stats.FullReallocs != 0 {
		t.Errorf("incremental run took %d full reallocation passes, want 0", ref.Stats.FullReallocs)
	}
	t.Logf("10k swarm: events=%d completed=%d reallocs=%d components=%d vtime=%v digest=%x",
		ref.Events, ref.Completed, ref.Stats.Reallocs, ref.Stats.Components, ref.VirtualTime, ref.Digest)
}

// TestDigestSensitivity makes sure the digest actually depends on the
// seed — a constant digest would make the determinism test vacuous.
func TestDigestSensitivity(t *testing.T) {
	a, err := Run(Config{Peers: 200, Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Peers: 200, Shards: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Fatalf("different seeds produced identical digest %x", a.Digest)
	}
}

// TestFullOracleSameWorkload checks the forced-full baseline simulates
// the identical workload: same digest as the incremental run, different
// only in allocator statistics. This is what makes the full recompute a
// differential oracle for the incremental reallocator.
func TestFullOracleSameWorkload(t *testing.T) {
	inc, err := Run(Config{Peers: 400, Shards: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(Config{Peers: 400, Shards: 2, Seed: 7, FullRealloc: true})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Digest != full.Digest || inc.Events != full.Events || inc.VirtualTime != full.VirtualTime {
		t.Fatalf("full oracle simulated a different trajectory:\n inc  %+v\n full %+v", inc, full)
	}
	if full.Stats.FullReallocs != full.Stats.Reallocs {
		t.Errorf("forced-full run: %d of %d passes were full", full.Stats.FullReallocs, full.Stats.Reallocs)
	}
	if inc.Stats.FullReallocs != 0 {
		t.Errorf("incremental run took %d full passes, want 0", inc.Stats.FullReallocs)
	}
	if inc.Stats.FlowsFilled >= full.Stats.FlowsFilled {
		t.Errorf("incremental filled %d flows, full filled %d; incremental should fill strictly fewer",
			inc.Stats.FlowsFilled, full.Stats.FlowsFilled)
	}
}
