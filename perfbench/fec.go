package main

import (
	"fmt"
	"time"

	"repro/internal/metadata"
)

// fec-clique: an 8-node full-mesh broadcast group on the Loopback radio
// and symbol domains with fountain coding on and seeded symbol loss.
// Once the group confirms (part of set-up), every downloader queries
// every file at once; round timers pace the transfer, so gains here show
// in the cost metrics rather than in latency. Each round runs on a fresh
// group.
const (
	fecNodes     = 8
	fecFiles     = 8
	fecPieceSize = 1024
	fecFileSize  = 48 * fecPieceSize
	fecLoss      = 0.1
	fecLimit     = 60 * time.Second
	// fecRoundEvery sizes the round count from the window; one round's
	// transfer takes about 10 s of round timers.
	fecRoundEvery = 10 * time.Second
	// fecHello is the swarm harness's beacon, which also paces the
	// broadcast rounds. fecLiveness is far wider than the harness's six
	// beacons: on a loaded 2-vCPU host a 150 ms window expired sessions
	// mid-transfer, the group fell apart and the pairwise plane carried
	// the files — 6× less CPU per piece and 4× lower latency than a run
	// on the same seed whose group held.
	fecHello    = 25 * time.Millisecond
	fecLiveness = time.Second
)

func runFEC(rc *runCtx) (*outcome, error) {
	spec := liveSpec{
		cfg: popConfig{
			nodes: fecNodes, degree: fecNodes - 1, files: fecFiles,
			fileSize: fecFileSize, pieceSize: fecPieceSize,
			hello: fecHello, liveness: fecLiveness,
			fec: true, loss: fecLoss, seed: rc.seed,
		},
		rounds: max(1, int(rc.window/fecRoundEvery)),
	}
	spec.drive = func(p *population) float64 {
		due := time.Now()
		for f := 0; f < fecFiles; f++ {
			for _, m := range p.members[1:] {
				p.fetches.add(m.id, metadata.URIFor(metadata.FileID(f)), due)
			}
		}
		for _, m := range p.members[1:] {
			for f := 0; f < fecFiles; f++ {
				m.d.AddQuery(fmt.Sprintf("f%d", f))
			}
		}
		lag := float64(time.Since(due)) / float64(time.Millisecond)
		p.fetches.waitIdle(due.Add(fecLimit))
		return lag
	}
	return runLive(rc, spec)
}
