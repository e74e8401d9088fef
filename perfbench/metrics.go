package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees. "op" is a verified piece
// on the live workloads and a simulation cell on paper-sweep; a latency
// sample is one (node, file) fetch on the live workloads and one figure
// panel on paper-sweep.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_ms.p50", "ms", "lower"},
	{"latency_ms.tail", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
	{"heap_mb", "MB", "lower"},
	{"tx_per_piece", "tx/piece", "lower"},
}

// perLayer is what the traced run reports, measured from outside each
// layer's public seam. A layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{"wire.frames_per_piece", "count", "lower"},
	{"wire.hello_frac", "fraction", "lower"},
	{"wire.bytes_per_piece", "B", "lower"},
	{"wire.encode_ns.hello", "ns", "lower"},
	{"wire.encode_ns.piece", "ns", "lower"},
	{"wire.encode_ns.symbol", "ns", "lower"},
	{"wire.decode_ns.hello", "ns", "lower"},
	{"wire.decode_ns.piece", "ns", "lower"},
	{"wire.decode_ns.symbol", "ns", "lower"},
	{"wire.decode_allocs.hello", "count", "lower"},
	{"wire.decode_allocs.piece", "count", "lower"},

	{"transport.send_us.p50", "us", "lower"},
	{"transport.send_us.p99", "us", "lower"},
	{"transport.dial_us.p50", "us", "lower"},
	{"transport.dials", "count", "lower"},
	{"transport.bcast_send_us.p50", "us", "lower"},
	{"transport.symbol_send_us.p50", "us", "lower"},

	{"peer.handle_us.hello.p50", "us", "lower"},
	{"peer.handle_us.hello.p99", "us", "lower"},
	{"peer.handle_us.piece.p50", "us", "lower"},
	{"peer.handle_us.piece.p99", "us", "lower"},
	{"peer.handle_us.metadata.p50", "us", "lower"},
	{"peer.handle_us.metadata.p99", "us", "lower"},
	{"peer.handle_us.dht.p50", "us", "lower"},
	{"peer.handle_us.dht.p99", "us", "lower"},
	{"peer.hellos_per_s", "1/s", "higher"},
	{"peer.inbound_shed", "count", "lower"},
	{"peer.reconnects", "count", "lower"},
	{"peer.handshake_failures", "count", "lower"},

	{"daemon.lock_probe_us.p50", "us", "lower"},
	{"daemon.lock_probe_us.p99", "us", "lower"},
	{"daemon.dup_ratio", "fraction", "lower"},
	{"daemon.resent_per_piece", "count", "lower"},
	{"daemon.outbox_drops.control", "count", "lower"},
	{"daemon.outbox_drops.data", "count", "lower"},
	{"daemon.redrives", "count", "lower"},

	{"store.sync_us.p50", "us", "lower"},
	{"store.sync_us.p99", "us", "lower"},
	{"store.syncs_per_piece", "count", "lower"},
	{"store.write_bytes_per_piece", "B", "lower"},
	{"store.compactions", "count", "lower"},

	{"bcast.idle_rounds_frac", "fraction", "lower"},
	{"bcast.grants_per_piece", "count", "lower"},
	{"bcast.collapses", "count", "lower"},

	{"fec.symbols_recv_per_piece", "count", "lower"},
	{"fec.relayed_per_piece", "count", "lower"},
	{"fec.useful_frac", "fraction", "higher"},
	{"fec.verify_fails", "count", "lower"},

	{"dht.resolve_ms.p50", "ms", "lower"},
	{"dht.resolve_ms.p99", "ms", "lower"},
	{"dht.hit_ratio", "fraction", "higher"},
	{"dht.rpcs_per_lookup", "count", "lower"},
	{"dht.rpc_timeouts", "count", "lower"},

	{"tracegen.gen_ms.p50", "ms", "lower"},
	{"core.setup_ms.p50", "ms", "lower"},
	{"core.run_ms.p50", "ms", "lower"},
	{"core.run_ms.p99", "ms", "lower"},
	{"eventq.events_per_cell", "count", "lower"},
	{"core.broadcasts_per_cell", "count", "lower"},

	{"driver.gen_lag_ms.max", "ms", "lower"},
	{"driver.trace_overhead", "ratio", "lower"},
	{"driver.fetch_fail_frac", "fraction", "lower"},
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, which it sorts; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// tailPercentiles are the candidates for a tail latency, highest first.
var tailPercentiles = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75}

// tail returns the highest candidate percentile that leaves at least
// ten samples beyond it, with that percentile; with too few samples for
// any candidate it returns the maximum and 100.
func tail(xs []float64) (value, pct float64) {
	n := float64(len(xs))
	for _, p := range tailPercentiles {
		if n*(1-p/100) >= 10 {
			return percentile(xs, p), p
		}
	}
	return percentile(xs, 100), 100
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medians returns, per metric, its median over several measurements.
func medians(ms []map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for name := range ms[0] {
		var xs []float64
		for _, m := range ms {
			xs = append(xs, m[name])
		}
		out[name] = median(xs)
	}
	return out
}

// usPercentiles converts nanosecond samples to microsecond p50/p99.
func usPercentiles(ns []int64) (p50, p99 float64) {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / 1e3
	}
	return percentile(xs, 50), percentile(xs, 99)
}

// usage is a process resource snapshot.
type usage struct {
	at         time.Time
	cpu        time.Duration // user + system
	totalAlloc uint64
}

func sampleUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
	}
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// costMetrics fills the per-op cost metrics for the window [a, b].
func costMetrics(m map[string]float64, a, b usage, ops float64) {
	if ops <= 0 {
		return
	}
	m["cpu_ms_per_op"] = ms(b.cpu-a.cpu) / ops
	m["alloc_kb_per_op"] = float64(b.totalAlloc-a.totalAlloc) / 1024 / ops
}

// envStamp describes where and on what the run measured.
func envStamp(dataDir string) map[string]any {
	stamp := map[string]any{
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"datadir_fs": fsType(dataDir),
		"source_sha": sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				stamp["commit"] = s.Value
			case "vcs.modified":
				stamp["commit_modified"] = s.Value == "true"
			}
		}
	}
	if _, ok := stamp["commit"]; !ok {
		stamp["commit"] = "unknown (not built in a git checkout; see source_sha)"
	}
	return stamp
}

// fsType names the filesystem backing dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%X", uint64(st.Type))
}

// sourceDigest hashes the Go sources and module files under root, so a
// result from a checkout without git history still names the tree it
// measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, f+"\n")
		io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
