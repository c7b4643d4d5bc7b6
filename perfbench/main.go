// Command perfbench is the repository's benchmark. It drives the meshgnn
// library from outside, on inputs generated from a seed, through one of
// three workloads (train, serve-large, serve-small), checks every answer
// bitwise against a reference, and prints the end-to-end metrics, or with
// -trace 1 the per-layer metrics of a traced run. BENCHMARK.json gates
// train and serve-large; see README.md for why serve-small is run by hand.
//
//	bash perfbench/run.sh --workload train --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The lines before it give
// the run's regime and every percentile with its sample count. The exit
// code is non-zero when an answer is wrong or the run cannot complete.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"meshgnn/internal/tensor"
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: train, serve-large or serve-small")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer profile instead of the end-to-end run")
	outDir := flag.String("out", ".bench_build", "directory for span files")
	flag.Parse()

	sp, ok := specs[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	var out *outcome
	var err error
	cpu0 := hostCPU()
	switch {
	case *trace == 1:
		out, err = profile(sp, *seed, *seconds, *outDir)
	case sp.name == "train":
		out, err = measureTrain(sp, *seed, *seconds)
	default:
		out, err = measureServe(sp, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	out.report["succeeded"] = out.attempted - out.failed
	out.report["workload"] = sp.name
	out.report["seed"] = *seed
	out.report["regime"] = regime(sp)
	if cpu1 := hostCPU(); cpu0 != nil && cpu1 != nil && cpu1.total > cpu0.total {
		out.report["host_steal_frac"] = float64(cpu1.steal-cpu0.steal) / float64(cpu1.total-cpu0.total)
	}
	table := endToEnd
	if *trace == 1 {
		table = perLayer
	}
	if err := out.print(os.Stdout, table); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !!out.wrong {
		fmt.Fprintf(os.Stderr, "perfbench: %s: wrong answers:\n  %s\n", sp.name, strings.Join(out.notes, "\n  "))
		return 1
	}
	return 0
}

// outcome is what one run measured and checked.
type outcome struct {
	attempted, failed int64
	wrong             bool // an answer differed from its reference
	metrics           map[string]float64
	report            map[string]any
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, report: map[string]any{}}
}

// note records a wrong answer.
func (o *outcome) note(format string, args ...any) {
	o.wrong = true
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// setMetric records a metric; its unit comes from the metric table.
func (o *outcome) setMetric(name string, v float64) {
	o.metrics[name] = v
}

// reportPct puts the q-quantile of the series xs (in measurement order),
// by blockQuantile, into the report with its sample count and the value
// of each block. ok is false when the sample count does not allow it.
func (o *outcome) reportPct(name string, xs []float64, q float64) (v float64, ok bool) {
	v, blocks, ok := blockQuantile(xs, q)
	if ok {
		o.report[name] = map[string]any{"value": v, "n": len(xs), "blocks": blocks}
	}
	return v, ok
}

// setPct is reportPct for a gated metric: it also records the metric, and
// fails when the sample count does not allow the percentile.
func (o *outcome) setPct(name string, xs []float64, q float64) error {
	v, ok := o.reportPct(name, xs, q)
	if !ok {
		return fmt.Errorf("%s: %d samples are too few for the %v quantile", name, len(xs), q)
	}
	o.setMetric(name, v)
	return nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// print writes a line per metric, the report as one JSON line, and the
// result as the last line. The run must have measured exactly the metrics
// of its table.
func (o *outcome) print(f *os.File, table []metricDef) error {
	w := bufio.NewWriter(f)
	if len(o.metrics) != len(table) {
		return fmt.Errorf("measured %d metrics, the table has %d", len(o.metrics), len(table))
	}
	res := resultJSON{Correct: !o.wrong, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	for _, m := range table {
		v, ok := o.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured (%v)", m.name, v)
		}
		fmt.Fprintf(w, "# %-28s %14.6g %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = metricJSON{v, m.unit}
	}
	rep, err := json.Marshal(o.report)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# report %s\n", rep)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

// regime records what a figure depends on besides the code, so that a
// change of host or set-up cannot pass as a speed-up.
func regime(sp *spec) map[string]any {
	simd := "generic"
	if tensor.SIMDEnabled() {
		simd = "avx2+fma"
	}
	return map[string]any{
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"cpu_model":        cpuModel(),
		"simd":             simd,
		"go_version":       runtime.Version(),
		"ranks":            ranks,
		"threads_per_rank": sp.cfg.Threads,
		"fabric":           sp.kind.String(),
		"link_delay_us":    0,
	}
}

// cpuTicks are the machine's CPU time counters, in clock ticks.
type cpuTicks struct{ steal, total uint64 }

// hostCPU reads the aggregate line of /proc/stat, or returns nil where
// there is none. The share of steal time over a run says how much of the
// run the hypervisor gave the machine's CPUs to other guests: a run with
// a high share measured the host as much as the program.
func hostCPU() *cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	var t cpuTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil
		}
		// guest and guest_nice (fields 9 and 10) are already counted in user.
		if i < 8 {
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return &t
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
