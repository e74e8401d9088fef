package main

// Outside-in tracing: wrappers around the daemon's public seams
// (transport.Transport and its Conns, BroadcastConn, SymbolConn,
// store.FS) that time each call and keep the spans in memory until the
// run ends. Only the traced run (-trace 1) installs them; the timed
// runs hand the daemons the raw transports and the OS filesystem.

import (
	"context"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// handle classes for the session-pump gap (peer.handle_us.*).
const (
	hHello = iota
	hPiece
	hMetadata
	hDHT
	hClasses
)

var handleNames = [hClasses]string{"hello", "piece", "metadata", "dht"}

func handleClass(t wire.MsgType) int {
	switch t {
	case wire.TypeHello:
		return hHello
	case wire.TypePiece:
		return hPiece
	case wire.TypeMetadata:
		return hMetadata
	case wire.TypeFindNode, wire.TypeFindValue, wire.TypeStoreValue, wire.TypeNodesReply:
		return hDHT
	}
	return -1
}

// sampleEvery keeps one frame in this many per type for codec replay,
// up to sampleCap frames per type.
const (
	sampleEvery = 16
	sampleCap   = 256
)

// tracer collects every span and count of one traced population.
type tracer struct {
	// active gates the window's spans; dials are recorded always, since
	// they happen during set-up.
	active atomic.Bool
	frames [256]atomic.Uint64 // sent frames by wire type, in the window

	mu          sync.Mutex
	conns       []*tracedConn
	dialNs      []int64
	bcastSendNs []int64
	symSendNs   []int64
	syncNs      []int64
	writeBytes  int64
	samples     map[wire.MsgType][]wire.Msg
}

func newTracer() *tracer {
	return &tracer{samples: make(map[wire.MsgType][]wire.Msg)}
}

// sent counts one outgoing frame and keeps a sample of it.
func (t *tracer) sent(m wire.Msg) {
	if !t.active.Load() {
		return
	}
	n := t.frames[m.Type()].Add(1)
	if n%sampleEvery != 1 {
		return
	}
	t.mu.Lock()
	if s := t.samples[m.Type()]; len(s) < sampleCap {
		t.samples[m.Type()] = append(s, m)
	}
	t.mu.Unlock()
}

// record appends a window span.
func (t *tracer) record(dst *[]int64, d time.Duration) {
	if !t.active.Load() {
		return
	}
	t.mu.Lock()
	*dst = append(*dst, int64(d))
	t.mu.Unlock()
}

// transport wraps tr so every Dial, Accept and Conn is traced.
func (t *tracer) transport(tr transport.Transport) transport.Transport {
	return &tracedTransport{Transport: tr, t: t}
}

type tracedTransport struct {
	transport.Transport
	t *tracer
}

func (tt *tracedTransport) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	start := time.Now()
	c, err := tt.Transport.Dial(ctx, addr)
	d := time.Since(start)
	tt.t.mu.Lock()
	tt.t.dialNs = append(tt.t.dialNs, int64(d))
	tt.t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return tt.t.conn(c), nil
}

func (tt *tracedTransport) Listen(addr string) (transport.Listener, error) {
	l, err := tt.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: l, t: tt.t}, nil
}

type tracedListener struct {
	transport.Listener
	t *tracer
}

func (tl *tracedListener) Accept(ctx context.Context) (transport.Conn, error) {
	c, err := tl.Listener.Accept(ctx)
	if err != nil {
		return nil, err
	}
	return tl.t.conn(c), nil
}

func (t *tracer) conn(c transport.Conn) *tracedConn {
	tc := &tracedConn{Conn: c, t: t}
	t.mu.Lock()
	t.conns = append(t.conns, tc)
	t.mu.Unlock()
	return tc
}

// tracedConn times Send (encode + enqueue + wait on a full queue) and
// the gap between a Recv's return and the next Recv call: the session
// pump dispatches each message synchronously in between, so the gap is
// that message's handling time.
type tracedConn struct {
	transport.Conn
	t *tracer

	mu     sync.Mutex
	sendNs []int64

	// Owned by the single Recv goroutine; read after the population has
	// stopped.
	lastRet   time.Time
	lastClass int
	handleNs  [hClasses][]int64
}

func (c *tracedConn) Send(ctx context.Context, m wire.Msg) error {
	start := time.Now()
	err := c.Conn.Send(ctx, m)
	d := time.Since(start)
	if !c.t.active.Load() {
		return err
	}
	c.mu.Lock()
	c.sendNs = append(c.sendNs, int64(d))
	c.mu.Unlock()
	if err == nil {
		c.t.sent(m)
	}
	return err
}

func (c *tracedConn) Recv(ctx context.Context) (wire.Msg, error) {
	if c.lastClass >= 0 && !c.lastRet.IsZero() && c.t.active.Load() {
		c.handleNs[c.lastClass] = append(c.handleNs[c.lastClass], int64(time.Since(c.lastRet)))
	}
	m, err := c.Conn.Recv(ctx)
	c.lastRet = time.Now()
	c.lastClass = -1
	if err == nil {
		c.lastClass = handleClass(m.Type())
	}
	return m, err
}

// broadcast wraps a radio-domain conn.
func (t *tracer) broadcast(bc transport.BroadcastConn) transport.BroadcastConn {
	return &tracedBroadcast{BroadcastConn: bc, t: t}
}

type tracedBroadcast struct {
	transport.BroadcastConn
	t *tracer
}

func (b *tracedBroadcast) Send(ctx context.Context, m wire.Msg) error {
	start := time.Now()
	err := b.BroadcastConn.Send(ctx, m)
	b.t.record(&b.t.bcastSendNs, time.Since(start))
	if err == nil {
		b.t.sent(m)
	}
	return err
}

// symbols wraps a symbol-lane conn.
func (t *tracer) symbols(sc transport.SymbolConn) transport.SymbolConn {
	return &tracedSymbols{SymbolConn: sc, t: t}
}

type tracedSymbols struct {
	transport.SymbolConn
	t *tracer
}

func (s *tracedSymbols) Send(ctx context.Context, m wire.Msg) error {
	start := time.Now()
	err := s.SymbolConn.Send(ctx, m)
	s.t.record(&s.t.symSendNs, time.Since(start))
	if err == nil {
		s.t.sent(m)
	}
	return err
}

// fs wraps the store's filesystem so every fsync is timed and every
// written byte counted.
func (t *tracer) fs() store.FS { return tracedFS{FS: store.OSFS{}, t: t} }

type tracedFS struct {
	store.FS
	t *tracer
}

func (f tracedFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	fl, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: fl, t: f.t}, nil
}

type tracedFile struct {
	store.File
	t *tracer
}

func (f tracedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if !f.t.active.Load() {
		return n, err
	}
	f.t.mu.Lock()
	f.t.writeBytes += int64(n)
	f.t.mu.Unlock()
	return n, err
}

func (f tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.t.record(&f.t.syncNs, time.Since(start))
	return err
}

// layerMetrics folds the wrapper spans into per-layer metrics; call it
// only after every traced daemon has stopped.
func (t *tracer) layerMetrics(m map[string]float64, verified float64) {
	var send []int64
	var handle [hClasses][]int64
	for _, c := range t.conns {
		c.mu.Lock()
		send = append(send, c.sendNs...)
		c.mu.Unlock()
		for k := range handle {
			handle[k] = append(handle[k], c.handleNs[k]...)
		}
	}
	m["transport.send_us.p50"], m["transport.send_us.p99"] = usPercentiles(send)
	m["transport.dial_us.p50"], _ = usPercentiles(t.dialNs)
	m["transport.dials"] = float64(len(t.dialNs))
	m["transport.bcast_send_us.p50"], _ = usPercentiles(t.bcastSendNs)
	m["transport.symbol_send_us.p50"], _ = usPercentiles(t.symSendNs)
	for k, name := range handleNames {
		m["peer.handle_us."+name+".p50"], m["peer.handle_us."+name+".p99"] = usPercentiles(handle[k])
	}

	var frames, hellos float64
	for typ := range t.frames {
		n := float64(t.frames[typ].Load())
		frames += n
		if wire.MsgType(typ) == wire.TypeHello {
			hellos = n
		}
	}
	if frames > 0 {
		m["wire.hello_frac"] = hellos / frames
	}
	if verified > 0 {
		m["wire.frames_per_piece"] = frames / verified
		m["wire.bytes_per_piece"] = t.estimatedBytes() / verified
		m["store.syncs_per_piece"] = float64(len(t.syncNs)) / verified
		m["store.write_bytes_per_piece"] = float64(t.writeBytes) / verified
	}
	m["store.sync_us.p50"], m["store.sync_us.p99"] = usPercentiles(t.syncNs)
	t.replayCodec(m)
}

// estimatedBytes scales each type's frame count by the mean encoded
// size of its samples.
func (t *tracer) estimatedBytes() float64 {
	var total float64
	for typ, s := range t.samples {
		if len(s) == 0 {
			continue
		}
		var size float64
		for _, msg := range s {
			size += float64(len(wire.Encode(msg)))
		}
		total += size / float64(len(s)) * float64(t.frames[typ].Load())
	}
	return total
}

// replayCodec times wire.Encode and wire.Decode on the captured samples
// of the three hot frame types after the run, when nothing else runs.
func (t *tracer) replayCodec(m map[string]float64) {
	for typ, name := range map[wire.MsgType]string{
		wire.TypeHello: "hello", wire.TypePiece: "piece", wire.TypeSymbol: "symbol",
	} {
		var msgs []wire.Msg
		var frames [][]byte
		for _, s := range t.samples[typ] {
			frame := wire.Encode(s)
			decoded, err := wire.Decode(frame) // a pre-encoded *wire.Raw becomes its typed message
			if err != nil {
				continue
			}
			msgs = append(msgs, decoded)
			frames = append(frames, frame)
		}
		if len(msgs) == 0 {
			continue
		}
		const rounds = 20
		n := float64(rounds * len(msgs))
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for _, msg := range msgs {
				wire.Encode(msg)
			}
		}
		m["wire.encode_ns."+name] = float64(time.Since(start).Nanoseconds()) / n

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start = time.Now()
		for r := 0; r < rounds; r++ {
			for _, f := range frames {
				wire.Decode(f)
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		m["wire.decode_ns."+name] = float64(elapsed.Nanoseconds()) / n
		if name != "symbol" {
			m["wire.decode_allocs."+name] = float64(after.Mallocs-before.Mallocs) / n
		}
	}
}
