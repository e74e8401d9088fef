package main

// A live population of daemons built through daemon.New. It mirrors the
// swarm harness's random-attachment topology (node i links to node i-1
// plus degree-1 seeded earlier nodes) but, unlike swarm.Harness, lets
// the traced run hand every daemon wrapped transports and a wrapped
// store filesystem.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/metadata"
	"repro/internal/trace"
	"repro/internal/transport"
)

// symbolSize is the coded-symbol payload with fec: 4 source symbols per
// 1 KB piece.
const symbolSize = 256

type popConfig struct {
	nodes     int
	degree    int // outbound links per node; nodes-1 makes a full mesh
	files     int // catalog size published by node 0, the only seeder
	fileSize  int64
	pieceSize int
	hello     time.Duration
	liveness  time.Duration
	tcp       bool   // real TCP on 127.0.0.1 instead of the Loopback
	dataDir   string // non-empty: every daemon persists under its own subdirectory
	dht       bool
	fec       bool    // one broadcast group with the fountain-coded symbol plane
	loss      float64 // seeded symbol-lane loss with fec
	seed      uint64
	tr        *tracer // nil: untraced
}

type member struct {
	id      trace.NodeID
	d       *daemon.Daemon
	targets []trace.NodeID // outbound links
	done    chan struct{}
}

type population struct {
	cfg     popConfig
	loop    *transport.Loopback
	cancel  context.CancelFunc
	members []*member
	fetches *fetchLog
}

// bootPopulation starts every daemon and returns once every node has
// completed a handshake on each of its outbound links (and, with fec,
// the whole population sits in one confirmed group).
func bootPopulation(cfg popConfig, fetches *fetchLog) (*population, error) {
	ctx, cancel := context.WithCancel(context.Background())
	p := &population{cfg: cfg, cancel: cancel, fetches: fetches}
	var tr transport.Transport
	if cfg.tcp {
		tr = &transport.TCP{}
	} else {
		p.loop = transport.NewLoopback()
		tr = p.loop
	}
	if cfg.tr != nil {
		tr = cfg.tr.transport(tr)
	}
	var radio, lane *transport.BroadcastDomain
	if cfg.fec {
		radio = p.loop.Domain("radio")
		lane = p.loop.SymbolDomain("radio")
		lane.SetLoss(cfg.loss, cfg.seed)
	}

	topo := rand.New(rand.NewSource(int64(cfg.seed ^ 0x5ee0c1a1)))
	addrs := make([]string, 0, cfg.nodes)
	for i := 0; i < cfg.nodes; i++ {
		id := trace.NodeID(i)
		targets := attachTargets(topo, i, cfg.degree)
		peerAddrs := make([]string, len(targets))
		for j, t := range targets {
			peerAddrs[j] = addrs[t]
		}
		dc := daemon.Config{
			ID:             id,
			Transport:      tr,
			ListenAddr:     fmt.Sprintf("n%d", i),
			PeerAddrs:      peerAddrs,
			FileSize:       cfg.fileSize,
			PieceSize:      cfg.pieceSize,
			HelloInterval:  cfg.hello,
			LivenessWindow: cfg.liveness,
			MaxPeers:       64,
			RetryBudget:    64,
			FetchMatching:  true,
			Backoff:        transport.Backoff{Min: cfg.hello / 4, Max: cfg.liveness, Jitter: -1},
			OnComplete:     func(uri metadata.URI) { fetches.complete(id, uri) },
			EnableDHT:      cfg.dht,
		}
		if cfg.tcp {
			dc.ListenAddr = "127.0.0.1:0"
		}
		if i == 0 {
			dc.InternetAccess = true
			dc.PublishFiles = cfg.files
		}
		if cfg.dataDir != "" {
			dc.DataDir = filepath.Join(cfg.dataDir, fmt.Sprintf("n%d", i))
			if cfg.tr != nil {
				dc.StoreFS = cfg.tr.fs()
			}
		}
		if cfg.fec {
			dc.EnableBcast, dc.EnableFEC, dc.SymbolSize = true, true, symbolSize
			bc, err := radio.Join(dc.ListenAddr)
			if err != nil {
				p.stop()
				return nil, err
			}
			sc, err := lane.Join(dc.ListenAddr)
			if err != nil {
				p.stop()
				return nil, err
			}
			if cfg.tr != nil {
				bc, sc = cfg.tr.broadcast(bc), cfg.tr.symbols(sc)
			}
			dc.Broadcast, dc.Symbols = bc, sc
		}
		d, err := daemon.New(dc)
		if err != nil {
			p.stop()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		m := &member{id: id, d: d, targets: targets, done: make(chan struct{})}
		p.members = append(p.members, m)
		go func() {
			defer close(m.done)
			d.Run(ctx)
		}()
		// Start the next node only once this one listens: later nodes dial
		// its bound address (the TCP port is picked at Listen), and a dial
		// that beats the listener fails into exponential redial backoff,
		// which added 1–3 s to a thousand-node boot.
		addr := d.Addr()
		for ; addr == ""; addr = d.Addr() {
			select {
			case <-m.done:
				p.stop()
				return nil, fmt.Errorf("node %d exited while booting", i)
			default:
				runtime.Gosched()
			}
		}
		addrs = append(addrs, addr)
	}
	if err := p.awaitReady(30 * time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// attachTargets picks node i's outbound links: its predecessor plus
// degree-1 distinct, seeded earlier nodes.
func attachTargets(topo *rand.Rand, i, degree int) []trace.NodeID {
	if i == 0 {
		return nil
	}
	picked := map[int]bool{i - 1: true}
	out := []trace.NodeID{trace.NodeID(i - 1)}
	for len(out) < degree && len(picked) < i {
		j := topo.Intn(i)
		if !picked[j] {
			picked[j] = true
			out = append(out, trace.NodeID(j))
		}
	}
	return out
}

func (p *population) awaitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for i := 0; i < len(p.members); {
		m := p.members[i]
		if p.ready(m) {
			i++
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %d not ready after %v", m.id, limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// ready reports whether m has a live session with each of its outbound
// targets (node 0, which dials nobody, with at least one peer) and, with
// fec, sits in a confirmed group of the whole population.
func (p *population) ready(m *member) bool {
	peers := m.d.Manager().Peers()
	if len(m.targets) == 0 && len(peers) == 0 {
		return false
	}
	have := make(map[trace.NodeID]bool, len(peers))
	for _, id := range peers {
		have[id] = true
	}
	for _, t := range m.targets {
		if !have[t] {
			return false
		}
	}
	if p.cfg.fec {
		st := m.d.Stats()
		return st.Bcast != nil && st.Bcast.Confirmed && len(st.Bcast.Group) == len(p.members)
	}
	return true
}

// pause silences every radio: no beacons, no inbound dispatch. Counters
// and piece sets are read only after this, outside the timed window —
// with a thousand nodes still beaconing, one Have() costs about 3.5 ms
// of lock wait and a full swarm.Report about 10 s, longer than the
// download it reports on.
func (p *population) pause() {
	for _, m := range p.members {
		m.d.Pause()
	}
}

// resume lifts pause.
func (p *population) resume() {
	for _, m := range p.members {
		m.d.Resume()
	}
}

// stop cancels every daemon and waits for each to return.
func (p *population) stop() {
	p.cancel()
	for _, m := range p.members {
		<-m.done
	}
	if p.loop != nil {
		p.loop.Close()
	}
}

// fetchKey names one (node, file) fetch.
type fetchKey struct {
	node trace.NodeID
	uri  metadata.URI
}

type fetch struct {
	due, done time.Time
	resolved  time.Time // metadata known (traced runs poll for it)
}

// fetchLog records when each fetch was due and when OnComplete fired.
type fetchLog struct {
	mu   sync.Mutex
	m    map[fetchKey]*fetch
	open int // fetches without a completion
}

func newFetchLog() *fetchLog { return &fetchLog{m: make(map[fetchKey]*fetch)} }

func (l *fetchLog) add(node trace.NodeID, uri metadata.URI, due time.Time) {
	l.mu.Lock()
	l.m[fetchKey{node, uri}] = &fetch{due: due}
	l.open++
	l.mu.Unlock()
}

func (l *fetchLog) complete(node trace.NodeID, uri metadata.URI) {
	now := time.Now()
	l.mu.Lock()
	if f := l.m[fetchKey{node, uri}]; f != nil && f.done.IsZero() {
		f.done = now
		l.open--
	}
	l.mu.Unlock()
}

// waitIdle blocks until no fetch is pending or the deadline passes.
func (l *fetchLog) waitIdle(deadline time.Time) {
	for time.Now().Before(deadline) {
		l.mu.Lock()
		open := l.open
		l.mu.Unlock()
		if open == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// snapshot copies the log.
func (l *fetchLog) snapshot() map[fetchKey]fetch {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[fetchKey]fetch, len(l.m))
	for k, f := range l.m {
		out[k] = *f
	}
	return out
}

// liveTotals sums the daemon counters a workload's metrics and checks
// need.
type liveTotals struct {
	verified, rejected, duplicate, resent, noMeta uint64
	piecesSent, pieceBcasts, symbolsSent, relayed uint64
	symbolsRecv, fecDecodes, fecVerifyFails       uint64
	inboundShed, reconnects, hsFailures, expiries uint64
	dropsControl, dropsData, redrives             uint64
	storeErrors, appendErrors, compactions        uint64
	idleRounds, rounds, grants, collapses         uint64
	dhtLookups, dhtHits, dhtRPCs, dhtTimeouts     uint64
}

// addTotals adds every daemon's counters to t; call it after pause.
func (p *population) addTotals(t *liveTotals) {
	for _, m := range p.members {
		st := m.d.Stats()
		t.verified += st.PiecesVerified
		t.rejected += st.PiecesRejected
		t.duplicate += st.PiecesDuplicate
		t.resent += st.PiecesResent
		t.noMeta += st.PiecesDroppedNoMetadata
		t.piecesSent += st.Transport.PiecesSent
		t.inboundShed += st.Transport.InboundShed
		t.reconnects += st.Transport.Reconnects
		t.hsFailures += st.Transport.HandshakeFail
		t.dropsControl += st.OutboxDropsControl
		t.dropsData += st.OutboxDropsData
		t.redrives += st.Redrives
		t.storeErrors += st.StoreErrors
		t.expiries += st.Transport.Expiries
		if st.Store != nil {
			t.appendErrors += st.Store.AppendErrors
			t.compactions += st.Store.Compactions
		}
		if st.Bcast != nil {
			t.pieceBcasts += st.Bcast.PieceBcastsSent
			t.symbolsSent += st.Bcast.SymbolsSent
			t.relayed += st.Bcast.SymbolsRelayed
			t.symbolsRecv += st.Bcast.SymbolsRecv
			t.fecDecodes += st.Bcast.FECDecodes
			t.fecVerifyFails += st.Bcast.FECVerifyFails
			t.idleRounds += st.Bcast.IdleRounds
			t.rounds += st.Bcast.Round
			t.grants += st.Bcast.GrantsSent
			t.collapses += st.Bcast.Collapses
		}
		if st.DHT != nil {
			t.dhtLookups += st.DHT.Lookups
			t.dhtHits += st.DHT.LookupHits
			t.dhtRPCs += st.DHT.RPCsSent
			t.dhtTimeouts += st.DHT.RPCTimeouts
		}
	}
}
