package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	hybriddtn "repro"
	"repro/internal/experiment"
)

// paper-sweep: the paper's evaluation, all 11 figure panels at Small
// scale in one experiment.RunSweep call on a 2-worker pool — what
// `experiments -small` runs. A latency sample is one whole sweep: the
// wait for every table. Every run reproduces the tables of the canonical
// sweep seed, so the work — and its digest — is the same on every run;
// --seed sets the order the panels are handed to the pool. (A sweep seed
// per run moved the cost per cell by more than 10% between seeds, and a
// sample per panel — under a second each — moved the slowest panel by
// 22% between runs.)
const (
	sweepWorkers = 2
	sweepSeed    = 1
	// sweepEvery sizes the sweep count from the window: one sweep (about
	// 7.5 s on two cores) per this much of --seconds, at least one.
	sweepEvery = 8 * time.Second
	// sweepSetupRepeats is how many times set-up is timed.
	sweepSetupRepeats = 51
	// sweepDigest is the digest of the 11 tables of
	// `experiments -small -seed 1`, in definition order.
	sweepDigest = "3c476cbfaac63c3b"
)

// timedSweep runs every panel once, handing them to the pool in the
// given order, checks each panel's shape and the tables' digest, and
// returns the sweep's window and cell count.
func timedSweep(out *outcome, defs []experiment.Definition, order []int) (start, end usage, cells int, err error) {
	ordered := make([]experiment.Definition, len(order))
	for k, i := range order {
		ordered[k] = defs[i]
	}
	opts := experiment.Options{Seed: sweepSeed, Small: true, Workers: sweepWorkers}
	start = sampleUsage()
	series, st, err := experiment.RunSweep(ordered, opts)
	end = sampleUsage()
	out.attempted += st.Runs
	out.failed += st.Failed
	if err != nil {
		out.check(false, "sweep: %v", err)
	}
	if st.Runs == 0 {
		return start, end, 0, fmt.Errorf("sweep ran no cells")
	}
	tables := make([]string, len(defs))
	for k, s := range series {
		if s != nil {
			checkShape(out, s)
			tables[order[k]] = s.Table()
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(tables, "\n")))
	digest := hex.EncodeToString(sum[:8])
	out.notes["digest"] = digest
	out.check(digest == sweepDigest, "tables digest %s, want %s", digest, sweepDigest)
	return start, end, st.Runs, nil
}

func runSweep(rc *runCtx) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, notes: map[string]any{}}
	m := out.metrics

	// Set-up: generate every contact trace the sweep's cells start from,
	// one per (panel, x), at Small scale. It takes tens of milliseconds,
	// so the median is over more repeats than a live boot's, each from a
	// collected heap after an untimed warm-up pass, so that every repeat
	// starts from the same state.
	defs := experiment.Definitions()
	var setups []float64
	for i := -1; i < sweepSetupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		for di := range defs {
			for _, x := range defs[di].Xs {
				if _, err := smallTraces(sweepSeed, &defs[di], x); err != nil {
					return nil, err
				}
			}
		}
		if i >= 0 {
			setups = append(setups, time.Since(start).Seconds())
		}
	}
	m["setup_s"] = median(setups)

	// The window holds whole sweeps; each is one latency sample.
	rng := rand.New(rand.NewSource(int64(rc.seed)))
	var lat, heap []float64
	var cells int
	var secs float64
	var cpu time.Duration
	var alloc uint64
	for n := max(1, int(rc.window/sweepEvery)); len(lat) < n; {
		start, end, c, err := timedSweep(out, defs, rng.Perm(len(defs)))
		if err != nil {
			return nil, err
		}
		cells += c
		secs += end.at.Sub(start.at).Seconds()
		cpu += end.cpu - start.cpu
		alloc += end.totalAlloc - start.totalAlloc
		lat = append(lat, ms(end.at.Sub(start.at)))
		heap = append(heap, liveHeapMB())
	}
	m["heap_mb"] = median(heap)
	m["ops_per_s"] = float64(cells) / secs
	m["cpu_ms_per_op"] = ms(cpu) / float64(cells)
	m["alloc_kb_per_op"] = float64(alloc) / 1024 / float64(cells)
	m["latency_ms.p50"] = median(lat)
	m["latency_ms.tail"] = percentile(lat, 100)
	out.notes["sweeps"] = len(lat)
	out.notes["cells"] = cells
	// A few sweeps leave no percentile with ten samples beyond it: the
	// tail is the slowest sweep.
	out.notes["latency_tail_percentile"] = 100.0

	sim, err := simCells()
	if err != nil {
		return nil, err
	}
	m["tx_per_piece"] = sim.txPerPiece
	if rc.traced {
		sim.layerMetrics(m)
	}
	return out, nil
}

// checkShape asserts the EXPERIMENTS.md ordering on one panel, averaged
// over its x values: metadata delivery MBT ≥ MBT-Q ≥ MBT-QM, and file
// delivery of MBT and MBT-Q at least MBT-QM's.
func checkShape(out *outcome, s *experiment.Series) {
	var meta, file [3]float64
	for _, p := range s.Points {
		for i, v := range []hybriddtn.Variant{hybriddtn.MBT, hybriddtn.MBTQ, hybriddtn.MBTQM} {
			meta[i] += p.Cells[v].MetadataRatio
			file[i] += p.Cells[v].FileRatio
		}
	}
	out.check(meta[0] >= meta[1] && meta[1] >= meta[2],
		"%s: metadata delivery not MBT ≥ MBT-Q ≥ MBT-QM (sums %.3f %.3f %.3f)", s.ID, meta[0], meta[1], meta[2])
	out.check(file[0] >= file[2] && file[1] >= file[2],
		"%s: file delivery of MBT/MBT-Q below MBT-QM (sums %.3f %.3f %.3f)", s.ID, file[0], file[1], file[2])
}

// smallTraces generates the Small-scale trace pair for seed, with x
// applied to the trace parameters when def is non-nil.
func smallTraces(seed uint64, def *experiment.Definition, x float64) ([2]*hybriddtn.Trace, error) {
	diesel := hybriddtn.DefaultDieselTrace()
	diesel.Seed = seed
	diesel.Buses, diesel.Routes, diesel.Days = 20, 4, 7
	nus := hybriddtn.DefaultNUSTrace()
	nus.Seed = seed
	nus.Students, nus.Classes, nus.Days = 60, 12, 7
	if def != nil {
		var cfg hybriddtn.Config
		def.Apply(x, &cfg, &nus, &diesel)
	}
	d, err := hybriddtn.DieselTrace(diesel)
	if err != nil {
		return [2]*hybriddtn.Trace{}, fmt.Errorf("diesel trace: %w", err)
	}
	n, err := hybriddtn.NUSTrace(nus)
	if err != nil {
		return [2]*hybriddtn.Trace{}, fmt.Errorf("nus trace: %w", err)
	}
	return [2]*hybriddtn.Trace{d, n}, nil
}

// simSample is the fixed cell subset timed layer by layer through the
// public hybriddtn API: both trace families × the three variants at the
// sweep's base Small configuration, for three fixed seeds. Its piece
// broadcasts per delivered piece are paper-sweep's tx_per_piece.
type simSample struct {
	genMs, setupMs, runMs []float64
	events, broadcasts    []float64
	txPerPiece            float64
}

func simCells() (*simSample, error) {
	s := &simSample{}
	var pieceTx, piecesDelivered float64
	for seed := uint64(1); seed <= 3; seed++ {
		t0 := time.Now()
		traces, err := smallTraces(seed, nil, 0)
		if err != nil {
			return nil, err
		}
		s.genMs = append(s.genMs, ms(time.Since(t0)))
		for ti, tr := range traces {
			for _, v := range []hybriddtn.Variant{hybriddtn.MBT, hybriddtn.MBTQ, hybriddtn.MBTQM} {
				cfg := hybriddtn.DefaultConfig(tr)
				cfg.Seed, cfg.Workload.Seed = seed, seed
				cfg.Variant = v
				cfg.Workload.NewFilesPerDay = 20
				cfg.FrequentContactsPerDay = []float64{1.0 / 3, 0.25}[ti]
				t1 := time.Now()
				sim, err := hybriddtn.NewSim(cfg)
				if err != nil {
					return nil, fmt.Errorf("new sim: %w", err)
				}
				t2 := time.Now()
				res, err := sim.Run()
				if err != nil {
					return nil, fmt.Errorf("sim run: %w", err)
				}
				s.setupMs = append(s.setupMs, ms(t2.Sub(t1)))
				s.runMs = append(s.runMs, ms(time.Since(t2)))
				s.events = append(s.events, float64(res.Events))
				s.broadcasts = append(s.broadcasts, float64(res.MetadataBroadcasts+res.PieceBroadcasts))
				pieceTx += float64(res.PieceBroadcasts)
				piecesDelivered += float64(res.FileDeliveries * cfg.Workload.PiecesPerFile)
			}
		}
	}
	if piecesDelivered > 0 {
		s.txPerPiece = pieceTx / piecesDelivered
	}
	return s, nil
}

func (s *simSample) layerMetrics(m map[string]float64) {
	m["tracegen.gen_ms.p50"] = median(s.genMs)
	m["core.setup_ms.p50"] = median(s.setupMs)
	m["core.run_ms.p50"] = median(s.runMs)
	m["core.run_ms.p99"] = percentile(s.runMs, 99)
	m["eventq.events_per_cell"] = mean(s.events)
	m["core.broadcasts_per_cell"] = mean(s.broadcasts)
}
