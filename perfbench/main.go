// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload and prints its metrics as the last line of
// standard output:
//
//	perfbench -workload swarm-1k -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the run installs no wrapper and reports the end-to-end
// metrics; with -trace 1 it wraps the daemon's transport, broadcast,
// symbol and store seams, probes the daemon lock, replays captured
// frames through the wire codec, and reports the per-layer metrics
// (see README.md). Every run checks the program's outputs; a failed
// check prints "correct": false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workload is one benchmark input family.
type workload struct {
	name string
	// medium names what carries live traffic: the in-memory Loopback or
	// real TCP on 127.0.0.1.
	medium string
	run    func(rc *runCtx) (*outcome, error)
}

var workloads = []workload{
	{name: "swarm-1k", medium: "loopback", run: runSwarm},
	{name: "durable-tcp", medium: "tcp-127.0.0.1", run: runDurable},
	{name: "fec-clique", medium: "loopback", run: runFEC},
	{name: "paper-sweep", medium: "none (simulator)", run: runSweep},
}

// runCtx carries one run's arguments.
type runCtx struct {
	seed    uint64
	window  time.Duration
	traced  bool
	workdir string // scratch space for daemon data directories
}

// outcome is what a workload hands back: its metrics and its checks.
type outcome struct {
	attempted, failed int
	checks            []string // failed output checks; empty = correct
	metrics           map[string]float64
	notes             map[string]any // sample counts, tail percentiles
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

// run parses the flags, measures one workload and prints its result;
// it returns the exit code: 0, 1 for a failed run or check, 2 for bad
// arguments.
func run() int {
	name := flag.String("workload", "", "workload to run: swarm-1k, durable-tcp, fec-clique or paper-sweep")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	traceFlag := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for daemon data directories")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		logf("bad arguments (workload %q, seconds %d, trace %d)", *name, *seconds, *traceFlag)
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer os.RemoveAll(dir)

	rc := &runCtx{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		traced:  *traceFlag == 1,
		workdir: dir,
	}
	out, err := w.run(rc)
	if err != nil {
		logf("%s: %v", w.name, err)
		return 1
	}
	emit(w, rc, dir, out)
	if len(out.checks) > 0 {
		return 1
	}
	return 0
}

// emit prints the environment stamp, the notes, any failed checks and,
// last, the result object.
func emit(w *workload, rc *runCtx, dir string, out *outcome) {
	stamp := envStamp(filepath.Dir(dir))
	stamp["workload"] = w.name
	stamp["medium"] = w.medium
	stamp["seed"] = rc.seed
	stamp["traced"] = rc.traced
	printJSONLine("env", stamp)
	if len(out.notes) > 0 {
		printJSONLine("notes", out.notes)
	}
	for _, c := range out.checks {
		fmt.Println("check failed:", c)
	}

	defs := endToEnd
	if rc.traced {
		defs = perLayer
	}
	res := result{
		Correct:   len(out.checks) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: out.metrics[d.name], Unit: d.unit}
	}
	declared := make(map[string]bool)
	for _, d := range append(endToEnd, perLayer...) {
		declared[d.name] = true
	}
	for k := range out.metrics {
		if !declared[k] {
			logf("metric %q is not declared", k)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// logf reports progress on standard error, which the result line never
// shares.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func printJSONLine(label string, v any) {
	b, _ := json.Marshal(v)
	fmt.Printf("%s: %s\n", label, b)
}
