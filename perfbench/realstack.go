package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/media"
	"p2psplice/internal/peer"
	"p2psplice/internal/splicer"
	"p2psplice/internal/trace"
	"p2psplice/internal/tracker"
)

// nprocWorkers is the parallel runner's width: one worker per usable CPU.
func nprocWorkers() int { return runtime.GOMAXPROCS(0) }

// realViewers is the loopback swarm's viewer count, nproc on the 2-CPU
// machine the workload was sized on; it stays fixed so the workload is
// the same on any machine.
const realViewers = 2

// completeTimeout bounds one loopback swarm; a run that needs longer
// fails instead of hanging the benchmark.
const completeTimeout = 60 * time.Second

type realStack struct {
	seed  int64
	clip  time.Duration
	m     *container.Manifest
	blobs [][]byte
}

func newRealStack(seed int64, sc scale) *realStack {
	return &realStack{seed: seed, clip: sc.realClip}
}

func (r *realStack) prepare(sp *spans) error {
	enc := media.DefaultEncoderConfig()
	sp2s := splicer.DurationSplicer{Target: 2 * time.Second}
	v, segs, err := synthesizeAndSplice(sp, enc, r.clip, r.seed, []splicer.Splicer{sp2s})
	if err != nil {
		return err
	}
	end := sp.begin("container.BuildManifest")
	m, blobs, err := container.BuildManifest(container.ClipInfo{
		Duration:       v.Duration(),
		BytesPerSecond: enc.BytesPerSecond,
		Seed:           r.seed,
	}, sp2s.Name(), segs[0])
	end()
	if err != nil {
		return err
	}
	r.m, r.blobs = m, blobs
	return nil
}

// observers are the hooks a traced swarm attaches; the zero value runs
// untraced.
type observers struct {
	tracer *trace.Tracer
	reg    *trace.Registry
}

// swarm runs one loopback swarm: tracker, seeder and viewers start, the
// viewers download the whole clip, and every stored segment is verified
// against the manifest.
func (r *realStack) swarm(sp *spans, obs observers) (res opResult, err error) {
	t0 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, fmt.Errorf("tracker listen: %w", err)
	}
	srv := &http.Server{Handler: tracker.NewServer(tracker.WithMetrics(obs.reg)).Handler()}
	var srvWG sync.WaitGroup
	srvWG.Add(1)
	go func() {
		defer srvWG.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	defer func() {
		_ = srv.Close()
		srvWG.Wait()
	}()
	trk := tracker.NewClient("http://"+ln.Addr().String(), nil)
	// The default announce interval outlasts the run: each viewer learns
	// its peers from the announce it makes on joining, so no run waits on
	// a periodic re-announce.
	cfg := peer.Config{Trace: obs.tracer, Metrics: obs.reg}

	end := sp.begin("peer.Seed")
	seeder, err := peer.Seed(trk, r.m, r.blobs, cfg)
	end()
	if err != nil {
		return res, fmt.Errorf("seed: %w", err)
	}
	defer seeder.Close()

	joined := time.Now()
	var viewers []*peer.Node
	defer func() {
		for _, v := range viewers {
			v.Close()
		}
	}()
	for i := 0; i < realViewers; i++ {
		end := sp.begin("peer.Join")
		v, err := peer.Join(trk, seeder.InfoHash(), cfg)
		end()
		if err != nil {
			return res, fmt.Errorf("join viewer %d: %w", i, err)
		}
		viewers = append(viewers, v)
	}
	res.perOpSetup = time.Since(t0).Seconds()

	ctx, cancel := context.WithTimeout(context.Background(), completeTimeout)
	defer cancel()
	incomplete := 0
	for _, v := range viewers {
		end := sp.begin("peer.WaitComplete")
		if err := v.WaitComplete(ctx); err != nil {
			incomplete++
		}
		end()
	}
	res.seconds = time.Since(joined).Seconds()

	nsegs := len(r.m.Segments)
	res.attempted = realViewers * (1 + nsegs)
	res.failed = incomplete
	for i, v := range viewers {
		bad, bytes := verifyStore(sp, r.m, v.Store())
		res.failed += bad
		res.bytes += float64(bytes)
		if bytes != r.m.TotalBytes() && bad == 0 {
			return res, fmt.Errorf("viewer %d holds %d bytes, manifest %d", i, bytes, r.m.TotalBytes())
		}
	}
	d := newDigest()
	for _, s := range r.m.Segments {
		d.word(uint64(s.Bytes))
		for _, b := range []byte(s.SHA256) {
			d.word(uint64(b))
		}
	}
	res.digest = d.sum()
	res.playback = float64(realViewers) * r.clip.Seconds()
	res.transfers = float64(realViewers * nsegs)
	res.input = fmt.Sprintf("%d viewers x %v clip, %d segments, %.1f MB each", realViewers, r.clip, nsegs,
		float64(r.m.TotalBytes())/(1<<20))
	return res, nil
}

// verifyStore checks every segment a viewer stored against the manifest
// and returns the failures and the bytes held.
func verifyStore(sp *spans, m *container.Manifest, st peer.SegmentStore) (bad int, bytes int64) {
	end := sp.begin("container.VerifySegment")
	defer end()
	for i := range m.Segments {
		blob, err := st.Block(i, 0, st.SegmentSize(i))
		if err != nil || m.VerifySegment(i, blob) != nil {
			bad++
			continue
		}
		bytes += int64(len(blob))
	}
	return bad, bytes
}

func (r *realStack) op(sp *spans) (opResult, error) { return r.swarm(sp, observers{}) }

func (r *realStack) layers(sp *spans, chk *checker) (map[string]float64, error) {
	m := map[string]float64{}
	sink := newCountSink()
	reg := trace.NewRegistry()
	var verifySecs, verifyBytes float64
	_, err := observe(chk, m, passes{
		pairs: 3,
		plain: func() (opResult, error) {
			before := sp.self("container.VerifySegment")
			res, err := r.op(sp)
			verifySecs += sp.self("container.VerifySegment") - before
			verifyBytes += res.bytes
			return res, err
		},
		observed: func(first bool) (opResult, error) {
			obs := observers{tracer: trace.New(newCountSink()), reg: trace.NewRegistry()}
			if first {
				obs = observers{tracer: trace.New(sink), reg: reg}
			}
			return r.swarm(sp, obs)
		},
	})
	if err != nil {
		return nil, err
	}
	counter := map[string]float64{}
	var rttP50 float64
	snap := reg.Snap()
	for _, s := range snap.Stats {
		counter[s.Name] = float64(s.Value)
	}
	for _, h := range snap.Hists {
		if h.Name == "p2p_announce_rtt_seconds" {
			rttP50 = 1000 * h.Quantile(0.5)
		}
	}
	spanMeans(m, sp)
	m["splicer.segments"] = float64(len(r.m.Segments))
	m["container.verify_mb_per_s"] = verifyBytes / (1 << 20) / verifySecs
	m["peer.segments_done"] = counter["segments_done"]
	m["peer.blocks_rx"] = counter["blocks_rx"]
	m["peer.sched_calls_per_segment"] = ratio(counter["sched_calls"], counter["segments_done"])
	m["peer.downloads_expired"] = counter["downloads_expired"]
	m["peer.verify_failures"] = counter["verify_failures"]
	m["tracker.announce_rtt_ms_p50"] = rttP50
	m["reputation.penalties"] = counter["rep_penalties"]
	m["reputation.quarantines"] = counter["rep_quarantines"]
	m["player.stalls"] = float64(sink.get(trace.CatPlayer, trace.EvStallBegin))
	m["player.startups"] = float64(sink.get(trace.CatPlayer, trace.EvStartup))
	m["trace.events"] = float64(sink.total())
	return m, nil
}
