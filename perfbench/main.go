// Command perfbench is the repository's node-level benchmark. It drives
// a real artemis.Node through its public API — over two loopback BMP
// routers or through Node.Inject — and measures what an operator sees:
// set-up time, saturation throughput, hijack-to-alert and
// hijack-to-mitigation latency at a fixed open-loop rate, CPU per route
// change and peak memory. An output oracle checks every alert, every
// mitigation and the route accounting; any violation fails the run.
//
//	bash perfbench/run.sh --workload wire-bmp --seed 1 --seconds 10 --trace 0
//
// --trace 1 runs the workload twice on the same inputs, untraced and
// traced, and prints the per-layer metrics plus the tracing overhead.
// METRICS.md defines every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"artemis/pkg/artemis"
)

// satShare is the share of --seconds given to the saturation phase; the
// latency phase gets the rest.
const satShare = 0.35

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	tmpDir   string
	// tiny shrinks the workload (self-tests).
	tiny bool
	// hook edits the node config before New (self-tests break set-ups
	// with it to prove the oracle bites).
	hook func(*artemis.Config)
	// wait bounds the wait for outstanding alerts and announcements.
	wait time.Duration
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed (1 is the default seed, 7 the held-out seed)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", filepath.Join(".bench_build", "traces"), "directory for span dumps")
	fs.StringVar(&o.tmpDir, "tmp", filepath.Join(".bench_build", "tmp"), "directory for the RIB snapshot")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	o.wait = defaultWait
	return execute(o, stdout, stderr)
}

// execute runs one invocation and prints the report, ending with the
// one-line JSON result. It returns the process exit code.
func execute(o options, stdout, stderr io.Writer) int {
	spec, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or bad --seconds (workloads: %s)\n",
			o.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if o.tiny {
		spec = spec.tiny()
	}
	in := buildInputs(spec, o.seed, o.seconds*satShare, o.seconds*(1-satShare))
	ribPath := ""
	if spec.ribV4+spec.ribV6 > 0 {
		if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		p, err := writeRIB(in, o.tmpDir, o.seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: rib snapshot: %v\n", err)
			return 1
		}
		defer os.Remove(p)
		ribPath = p
	}

	res, err := measure(in, o, nil, ribPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d route changes and hijacks attempted, %d failed (fail_ratio %.3g), %d alert samples\n",
		o.workload, o.seed, res.attempted, res.failed(), float64(res.failed())/float64(res.attempted), res.samples)
	report(stdout, "end-to-end", e2eList(res, false))
	fmt.Fprintf(stdout, "alert p50 per %v window (ms): %.3g\n", quietWindow, res.windowP50)
	fmt.Fprintf(stdout, "alert p99 per %v window (ms): %.3g\n", window, res.windowP99)
	report(stdout, "workload properties", res.props)
	attempted, failed := res.attempted, res.failed()
	notes := res.verdict.notes
	out := e2eList(res, true)

	if o.trace {
		tr := &tracer{}
		tres, err := measure(in, o, tr, ribPath)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", o.workload, err)
			return 1
		}
		out = tres.layer
		for _, m := range e2eList(tres, true) {
			out = append(out, metric{"trace.overhead." + m.name, m.unit, m.value - res.e2e[m.name]})
		}
		report(stdout, "per-layer (traced run)", out)
		attempted += tres.attempted
		failed += tres.failed()
		notes = append(notes, tres.verdict.notes...)
		path := filepath.Join(o.traceOut, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
	}
	for _, n := range notes {
		fmt.Fprintf(stdout, "FAIL %s\n", n)
	}
	result := map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   jsonMetrics(out),
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if failed > 0 {
		return 1
	}
	return 0
}

// e2eList lists a run's end-to-end figures, only the bounded ones when
// bounded is set.
func e2eList(res *runResult, bounded bool) []metric {
	out := make([]metric, 0, len(e2eMetrics))
	for _, m := range e2eMetrics {
		if m.bounded || !bounded {
			out = append(out, metric{m.name, m.unit, res.e2e[m.name]})
		}
	}
	return out
}

func report(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

// jsonMetrics renders metrics for the result line. A latency with a
// missing sample is +Inf, which JSON cannot carry; such a run has
// already failed, and the value is reported as -1.
func jsonMetrics(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		v := m.value
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = -1
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	return out
}
