package main

import (
	"time"

	"repro/internal/metadata"
	"repro/internal/peer"
)

// swarm-1k: a closed one-shot burst on the in-memory Loopback, the
// steady-1000 shape. A thousand daemons in a degree-4 random-attachment
// graph; node 0 seeds one 16 × 1 KB file, and every downloader queries
// it at the same instant; the round ends when all of them hold it
// verified. The window holds several rounds, each on a fresh population:
// a second query on the same population is not the same shape, since
// every open query adds metadata traffic to each hello for good.
const (
	swarmNodes      = 1000
	swarmPieceSize  = 1024
	swarmFileSize   = 16 * swarmPieceSize
	swarmBurstLimit = 30 * time.Second
	// swarmHello is the beacon interval. At the harness's 25 ms a
	// thousand daemons saturate two cores while idle and a boot takes
	// 12–28 s; at 200 ms an idle population uses about half a core, and
	// hellos are still the commonest frame of a burst (39%, against 35%
	// metadata and 26% pieces, in a traced run).
	swarmHello = 200 * time.Millisecond
	// swarmLiveness is mbtd's default window, not six beacons: at 1.2 s
	// the burst starved beacon loops past the window, and every round
	// spent itself in session expiries and redial storms (about 2.7k
	// reconnects per round, 65k over ten rounds on a loaded host), which
	// moved tx_per_piece by a third with the host's load. At 5 s an
	// unloaded run sees none.
	swarmLiveness = peer.DefaultLivenessWindow
	// swarmRoundEvery sizes the round count from the window: one round
	// per this much of --seconds, at least one.
	swarmRoundEvery = 2 * time.Second
)

func runSwarm(rc *runCtx) (*outcome, error) {
	spec := liveSpec{
		cfg: popConfig{
			nodes: swarmNodes, degree: 4, files: 1,
			fileSize: swarmFileSize, pieceSize: swarmPieceSize,
			hello: swarmHello, liveness: swarmLiveness,
			seed: rc.seed,
		},
		rounds: max(1, int(rc.window/swarmRoundEvery)),
	}
	spec.drive = func(p *population) float64 {
		// Hand out the queries with every radio paused for a moment: under
		// the beacon load each AddQuery waits milliseconds for its daemon's
		// lock, which would smear the burst over seconds. The pause is far
		// shorter than the liveness window.
		p.pause()
		for _, m := range p.members[1:] {
			m.d.AddQuery("f0")
		}
		due := time.Now()
		for _, m := range p.members[1:] {
			p.fetches.add(m.id, metadata.URIFor(0), due)
		}
		p.resume()
		// A closed burst has no schedule to fall behind; the lag is the
		// time to resume every radio.
		lag := ms(time.Since(due))
		p.fetches.waitIdle(due.Add(swarmBurstLimit))
		return lag
	}
	return runLive(rc, spec)
}
