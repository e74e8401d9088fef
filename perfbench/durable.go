package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/metadata"
	"repro/internal/peer"
	"repro/internal/trace"
)

// durable-tcp: the mbtd deployment shape. Sixteen daemons on real TCP
// sockets on 127.0.0.1, each persisting to its own data directory (WAL
// append + fsync per event) with the DHT on, at mbtd's default clock:
// a 1 s beacon, a 5 s liveness window and DHT upkeep every 10 beacons.
// Node 0 publishes a catalog of 64 files of two 256 KB pieces. Queries
// arrive open-loop: a seeded schedule of a fixed count over the window,
// each for a random downloader and a file it has not fetched yet, drawn
// by the paper's truncated-exponential popularity, and each fetch is
// timed from its due time.
const (
	durableNodes     = 16
	durableFiles     = 64
	durablePieceSize = metadata.DefaultPieceSize
	durableFileSize  = 2 * durablePieceSize
	// durableRate is the offered load in queries per second, far below
	// saturation (about a quarter of one core). It also fixes ops_per_s:
	// the window is the schedule plus the drain, so throughput here is
	// the offered load. At 16 queries/s one seed in three handed a query
	// out 260 ms late, past the generator-lag check.
	durableRate = 8
	// durableDrain bounds the wait for the last fetches after the final
	// arrival.
	durableDrain = 30 * time.Second
)

// arrival is one scheduled query.
type arrival struct {
	at   time.Duration // offset from the window start
	node trace.NodeID
	file metadata.FileID
}

// durableSchedule draws the window's arrivals from seed: a Poisson
// process conditioned on rate×window arrivals (exponential gaps rescaled
// to span the window, so every seed offers the same load), nodes uniform
// over the downloaders, files weighted by popularity without repeating a
// (node, file) pair.
func durableSchedule(seed uint64, window time.Duration) []arrival {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := int(durableRate * window.Seconds())
	n = min(n, (durableNodes-1)*durableFiles)
	pop := popularities(rng, durableFiles)
	gaps := make([]float64, n+1)
	var sum float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		sum += gaps[i]
	}
	taken := make(map[arrival]bool)
	out := make([]arrival, 0, n)
	var at float64
	for i := 0; i < n; i++ {
		at += gaps[i] / sum * float64(window)
		for {
			a := arrival{node: trace.NodeID(1 + rng.Intn(durableNodes-1)), file: pick(rng, pop)}
			if !taken[a] {
				taken[a] = true
				a.at = time.Duration(at)
				out = append(out, a)
				break
			}
		}
	}
	return out
}

// popularities gives the n files the quantiles of the paper's truncated
// exponential density λe^(-λx) on [0, 1] with λ = n/2, dealt out in a
// seeded order. Drawing the values instead moved tx_per_piece by 20%
// between seeds: how skewed one draw comes out decides how many peers
// hold a file when it is fetched, and so how many push it at once.
func popularities(rng *rand.Rand, n int) []float64 {
	lambda := float64(n) / 2
	out := make([]float64, n)
	for i, j := range rng.Perm(n) {
		u := (float64(j) + 0.5) / float64(n)
		out[i] = -math.Log(1-u*(1-math.Exp(-lambda))) / lambda
	}
	return out
}

// pick draws an index with probability proportional to its weight.
func pick(rng *rand.Rand, w []float64) metadata.FileID {
	var total float64
	for _, x := range w {
		total += x
	}
	r := rng.Float64() * total
	for i, x := range w {
		if r < x {
			return metadata.FileID(i)
		}
		r -= x
	}
	return metadata.FileID(len(w) - 1)
}

func runDurable(rc *runCtx) (*outcome, error) {
	sched := durableSchedule(rc.seed, rc.window)
	spec := liveSpec{
		cfg: popConfig{
			nodes: durableNodes, degree: 4, files: durableFiles,
			fileSize: durableFileSize, pieceSize: durablePieceSize,
			hello: peer.DefaultHelloInterval, liveness: peer.DefaultLivenessWindow,
			tcp: true, dht: true, seed: rc.seed,
		},
		durable: true,
	}
	spec.drive = func(p *population) float64 {
		start := time.Now()
		for _, a := range sched {
			p.fetches.add(a.node, metadata.URIFor(a.file), start.Add(a.at))
		}
		// Each query reaches its daemon on a goroutine of its own: AddQuery
		// waits for the daemon's lock, which a piece's verify and fsyncs
		// hold for milliseconds (tens under CPU contention), and that wait
		// must not hold back the next arrival, for another node. The fetch
		// is timed from its due time either way, so the wait still counts
		// in its latency; the lag is the generator's own lateness.
		var wg sync.WaitGroup
		var lag time.Duration
		for _, a := range sched {
			due := start.Add(a.at)
			time.Sleep(time.Until(due))
			lag = max(lag, time.Since(due))
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.members[a.node].d.AddQuery(fmt.Sprintf("f%d", a.file))
			}()
		}
		wg.Wait()
		p.fetches.waitIdle(time.Now().Add(durableDrain))
		return ms(lag)
	}
	return runLive(rc, spec)
}
