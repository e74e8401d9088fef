package main

// Shared plumbing of the three live workloads: repeated set-up, the
// measured rounds, the traced run's probes, and the metrics and output
// checks computed from the fetch log and the daemon counters once the
// population is paused.

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/metadata"
	"repro/internal/wire"
)

// setupRepeats is how many times a timed run boots a population at
// least; setup_s is the median boot time.
const setupRepeats = 5

// liveSpec describes one live workload.
type liveSpec struct {
	cfg popConfig
	// durable gives every boot fresh per-node data directories.
	durable bool
	// rounds is how many measured rounds the window holds, each on a
	// freshly booted population (default 1).
	rounds int
	// drive generates one round's load and returns once every fetch it
	// issued has completed or run out of time; it reports how late the
	// generator ran behind its schedule, in ms.
	drive func(p *population) (lagMs float64)
}

// runLive measures spec. The timed run installs no wrapper. The traced
// run measures an untraced pass first, then a traced pass, and reports
// the traced pass's per-layer metrics with the CPU-per-op ratio of the
// two as the tracing overhead.
func runLive(rc *runCtx, spec liveSpec) (*outcome, error) {
	base, err := measureLive(rc, spec, nil, "timed")
	if err != nil || !rc.traced {
		return base, err
	}
	out, err := measureLive(rc, spec, newTracer(), "traced")
	if err != nil {
		return nil, err
	}
	out.checks = append(base.checks, out.checks...)
	if b := base.metrics["cpu_ms_per_op"]; b > 0 {
		out.metrics["driver.trace_overhead"] = out.metrics["cpu_ms_per_op"] / b
	}
	out.notes["untraced_cpu_ms_per_op"] = base.metrics["cpu_ms_per_op"]
	out.notes["traced_cpu_ms_per_op"] = out.metrics["cpu_ms_per_op"]
	return out, nil
}

// measureLive boots max(setupRepeats, rounds) populations one after
// another; the last rounds boots each carry one measured round, the
// earlier ones only time set-up. A traced pass boots only its rounds.
func measureLive(rc *runCtx, spec liveSpec, tr *tracer, pass string) (*outcome, error) {
	rounds := max(1, spec.rounds)
	boots := max(setupRepeats, rounds)
	if tr != nil {
		boots = rounds
	}
	agg := &liveAgg{pieceSize: spec.cfg.pieceSize, maxLagMs: ms(spec.cfg.hello)}
	if spec.cfg.fec {
		agg.symbolSize = symbolSize
	}
	var setups []float64
	for i := 0; i < boots; i++ {
		cfg := spec.cfg
		cfg.tr = tr
		// Every boot draws its own topology and loss stream from the run
		// seed, so a run's median spans several inputs, not one.
		cfg.seed = spec.cfg.seed ^ uint64(i+1)*0x9e3779b97f4a7c15
		if spec.durable {
			cfg.dataDir = filepath.Join(rc.workdir, fmt.Sprintf("%s-boot%d", pass, i))
		}
		start := time.Now()
		p, err := bootPopulation(cfg, newFetchLog())
		if err != nil {
			return nil, fmt.Errorf("%s boot %d: %w", pass, i, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i >= boots-rounds {
			measureRound(p, spec, tr, agg)
		}
		p.stop()
	}
	logf("%s: boot times %v s", pass, setups)
	out := agg.outcome(median(setups))
	if tr != nil {
		agg.layerMetrics(out, tr)
	}
	return out, nil
}

// measureRound drives one round on a booted population and folds its
// results into agg.
func measureRound(p *population, spec liveSpec, tr *tracer, agg *liveAgg) {
	var pr *probe
	if tr != nil {
		tr.active.Store(true)
		pr = startProbe(p)
	}
	start := sampleUsage()
	lag := spec.drive(p)
	end := sampleUsage()
	if pr != nil {
		pr.finish()
		tr.active.Store(false)
		agg.lockNs = append(agg.lockNs, pr.lockNs...)
	}
	p.pause()
	m := agg.add(p, start, end, lag)
	// Let the send queues drain into the paused receivers, so the live
	// heap reading holds the nodes' state rather than frames in flight.
	// The counters are read before this: a pause longer than the
	// liveness window expires sessions and collapses groups.
	time.Sleep(settle)
	m["heap_mb"] = liveHeapMB()
}

const settle = 200 * time.Millisecond

// probe is the traced run's poller: at a low fixed rate it times
// Daemon.Completed for file 0 on a fixed node subset — a proxy for
// waiting on the daemon lock — and, with the DHT on, polls KnowsMetadata
// for pending fetches to time query resolution. It runs on one goroutine of the benchmark process.
type probe struct {
	stop chan struct{}
	done chan struct{}

	lockNs []int64 // written by the probe goroutine, read after finish
}

const (
	probeEvery  = 20 * time.Millisecond
	probeSubset = 8
)

func startProbe(p *population) *probe {
	pr := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	subset := min(probeSubset, len(p.members)-1)
	go func() {
		defer close(pr.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-pr.stop:
				return
			case <-tick.C:
			}
			d := p.members[1+i%subset].d
			start := time.Now()
			d.Completed(metadata.URIFor(0))
			pr.lockNs = append(pr.lockNs, int64(time.Since(start)))
			if p.cfg.dht {
				pollResolution(p)
			}
		}
	}()
	return pr
}

// pollResolution stamps each due, unresolved fetch whose node now
// knows the file's metadata.
func pollResolution(p *population) {
	now := time.Now()
	l := p.fetches
	l.mu.Lock()
	var open []fetchKey
	for k, f := range l.m {
		if f.resolved.IsZero() && f.done.IsZero() && !f.due.After(now) {
			open = append(open, k)
		}
	}
	l.mu.Unlock()
	for _, k := range open {
		if !p.members[k.node].d.KnowsMetadata(k.uri) {
			continue
		}
		at := time.Now()
		l.mu.Lock()
		l.m[k].resolved = at
		l.mu.Unlock()
	}
}

func (pr *probe) finish() {
	close(pr.stop)
	<-pr.done
}

// liveAgg accumulates the measured rounds of one pass.
type liveAgg struct {
	pieceSize  int
	symbolSize int // bytes per coded symbol, 0 without fec

	// Per-round end-to-end metrics; the pass reports each one's median
	// over rounds, so one round caught in a reconnect storm does not
	// decide the result.
	perRound []map[string]float64
	tailPct  []float64

	resolveMs                     []float64
	attempted, failed, incomplete int
	latSamples                    int
	t                             liveTotals // summed over rounds
	secs                          float64
	lagMs, maxLagMs               float64
	lockNs                        []int64
}

// add folds in one paused population's round: its fetches (each checked
// for Completed and a full Have bitmap) and its counters. It returns the
// round's metrics for the caller to complete with the live heap.
func (a *liveAgg) add(p *population, start, end usage, lagMs float64) map[string]float64 {
	var lat []float64
	for k, f := range p.fetches.snapshot() {
		a.attempted++
		if f.done.IsZero() {
			a.failed++
			continue
		}
		d := p.members[k.node].d
		ok := d.Completed(k.uri)
		for _, b := range d.Have(k.uri) {
			ok = ok && b
		}
		if !ok {
			a.failed++
			a.incomplete++
			continue
		}
		lat = append(lat, ms(f.done.Sub(f.due)))
		if !f.resolved.IsZero() {
			a.resolveMs = append(a.resolveMs, ms(f.resolved.Sub(f.due)))
		}
	}
	var t liveTotals
	p.addTotals(&t)
	p.addTotals(&a.t)
	secs := end.at.Sub(start.at).Seconds()
	a.secs += secs
	a.lagMs = max(a.lagMs, lagMs)
	a.latSamples += len(lat)

	m := map[string]float64{"latency_ms.p50": median(lat)}
	var pct float64
	m["latency_ms.tail"], pct = tail(lat)
	a.tailPct = append(a.tailPct, pct)
	if t.verified > 0 {
		v := float64(t.verified)
		m["ops_per_s"] = v / secs
		costMetrics(m, start, end, v)
		tx := float64(t.piecesSent + t.pieceBcasts)
		if a.symbolSize > 0 {
			tx += float64(t.symbolsSent+t.relayed) * float64(a.symbolSize) / float64(a.pieceSize)
		}
		m["tx_per_piece"] = tx / v
	}
	a.perRound = append(a.perRound, m)
	return m
}

// outcome computes the end-to-end metrics and output checks.
func (a *liveAgg) outcome(setup float64) *outcome {
	t := a.t
	out := &outcome{
		attempted: a.attempted,
		failed:    a.failed,
		metrics:   map[string]float64{"setup_s": setup, "driver.gen_lag_ms.max": a.lagMs},
		notes:     map[string]any{},
	}
	out.check(a.failed == 0, "%d of %d fetches not verified by the deadline (%d reported complete without every piece)",
		a.failed, a.attempted, a.incomplete)
	out.check(t.rejected == 0, "pieces_rejected = %d", t.rejected)
	out.check(t.appendErrors == 0 && t.storeErrors == 0, "store.append_errors = %d, daemon store errors = %d", t.appendErrors, t.storeErrors)
	// The daemon drops a piece whose file's metadata it does not hold
	// yet, and the fountain path counts that drop as a failed verify:
	// a member can finish decoding a piece meant for another member
	// before its own query resolves. The count says which it was.
	out.check(t.fecVerifyFails == 0, "fec.verify_fails = %d (pieces dropped for lack of metadata: %d)",
		t.fecVerifyFails, t.noMeta)
	out.check(t.dropsControl == 0, "daemon.outbox_drops.control = %d", t.dropsControl)
	out.check(t.collapses == 0, "bcast.collapses = %d after the group confirmed", t.collapses)
	// The load generator may hand a query out at most one beacon late.
	// A query reaches the network only in its node's next hello, so a
	// smaller delay moves that hello by at most one beacon, and the
	// fetch, timed from its due time, counts it. The generator shares the
	// Go scheduler with the daemons: on a 2-vCPU host shared with two
	// busy processes, durable-tcp's beacon-tick bursts left goroutines
	// runnable for 0.3–0.7 s and the generator up to 264 ms late.
	out.check(a.lagMs <= a.maxLagMs, "load generator ran %.1f ms behind its schedule (bound: one beacon, %.0f ms)", a.lagMs, a.maxLagMs)

	for name, v := range medians(a.perRound) {
		out.metrics[name] = v
	}
	for k, v := range map[string]any{
		"rounds": len(a.perRound), "latency_samples": a.latSamples,
		"latency_tail_percentile_per_round": a.tailPct,
		"window_s":                          a.secs, "verified_pieces": t.verified, "piece_bytes": a.pieceSize,
		"generator_lag_ms_max": a.lagMs, "reconnects": t.reconnects,
		"handshake_failures": t.hsFailures, "expiries": t.expiries,
		"pieces_dropped_no_metadata": t.noMeta,
	} {
		out.notes[k] = v
	}
	return out
}

// layerMetrics adds the per-layer metrics of a traced pass; every traced
// daemon must have stopped.
func (a *liveAgg) layerMetrics(out *outcome, tr *tracer) {
	m, t := out.metrics, a.t
	v := float64(t.verified)
	tr.layerMetrics(m, v)
	m["peer.hellos_per_s"] = float64(tr.frames[wire.TypeHello].Load()) / a.secs
	byType := make(map[string]uint64)
	for typ := range tr.frames {
		if n := tr.frames[typ].Load(); n > 0 {
			byType[wire.MsgType(typ).String()] = n
		}
	}
	out.notes["frames_by_type"] = byType
	m["peer.inbound_shed"] = float64(t.inboundShed)
	m["peer.reconnects"] = float64(t.reconnects)
	m["peer.handshake_failures"] = float64(t.hsFailures)
	m["daemon.lock_probe_us.p50"], m["daemon.lock_probe_us.p99"] = usPercentiles(a.lockNs)
	if t.verified+t.duplicate > 0 {
		m["daemon.dup_ratio"] = float64(t.duplicate) / float64(t.verified+t.duplicate)
	}
	if v > 0 {
		m["daemon.resent_per_piece"] = float64(t.resent) / v
		m["bcast.grants_per_piece"] = float64(t.grants) / v
		m["fec.symbols_recv_per_piece"] = float64(t.symbolsRecv) / v
		m["fec.relayed_per_piece"] = float64(t.relayed) / v
	}
	m["daemon.outbox_drops.control"] = float64(t.dropsControl)
	m["daemon.outbox_drops.data"] = float64(t.dropsData)
	m["daemon.redrives"] = float64(t.redrives)
	m["store.compactions"] = float64(t.compactions)
	if t.rounds > 0 {
		m["bcast.idle_rounds_frac"] = float64(t.idleRounds) / float64(t.rounds)
	}
	m["bcast.collapses"] = float64(t.collapses)
	if t.symbolsRecv > 0 && a.symbolSize > 0 {
		perPiece := float64(a.pieceSize) / float64(a.symbolSize)
		m["fec.useful_frac"] = float64(t.fecDecodes) * perPiece / float64(t.symbolsRecv)
	}
	m["fec.verify_fails"] = float64(t.fecVerifyFails)
	if t.dhtLookups > 0 {
		m["dht.hit_ratio"] = float64(t.dhtHits) / float64(t.dhtLookups)
		m["dht.rpcs_per_lookup"] = float64(t.dhtRPCs) / float64(t.dhtLookups)
	}
	m["dht.rpc_timeouts"] = float64(t.dhtTimeouts)
	m["dht.resolve_ms.p50"] = percentile(a.resolveMs, 50)
	m["dht.resolve_ms.p99"] = percentile(a.resolveMs, 99)
	if a.attempted > 0 {
		m["driver.fetch_fail_frac"] = float64(a.failed) / float64(a.attempted)
	}
}
