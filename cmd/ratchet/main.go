// Command ratchet is the benchmark regression gate: it compares two
// bench reports (cmd/bench JSON) and fails unless the new report holds
// the performance ratchet on the tracked kernels —
//
//   - mat_mul must beat the old report by at least -matmul-ratio (the
//     packed cache-blocked GEMM tier vs the legacy kernels), and
//   - infer_step must beat the old report by at least -infer-ratio
//     (default 1.0, i.e. no regression; set below 1.0 when comparing a
//     fresh run against a committed report from different hardware, where
//     only gross regressions are meaningful), and
//   - infer_step_f32, when present in the new report, must beat the new
//     report's own float64 infer_step by at least -f32-ratio (the
//     single-precision serving twin must pay for itself), and
//   - the batched serving tier, when present in the new report, must
//     amortize: the B=8 coalesced-batch entry's amortization_vs_b1 must
//     reach -batch-amort (default 1.5x; pass 0 to skip, e.g. when gating
//     a fresh run whose absolute serving latencies are too noisy for a
//     strict floor), and
//   - the concurrent serving tier must scale: the new report's S=4
//     multi-session entry must reach -session-scaling times the S=1
//     saturation throughput on the link-delay-emulated socket fabric
//     (default 2.5x; pass 0 to skip), with every entry's bitwise_equal
//     flag set — throughput bought by numeric divergence doesn't count,
//     and
//   - the batched training tier, when present in the new report, must
//     amortize: the B=8 row-block StepBatch entry's amortization_vs_b1
//     (per-sample cost vs B=1 sequential steps, gradients bitwise-equal
//     by construction) must reach -train-batch-amort (default 1.3x; pass
//     0 to skip).
//
// Per kernel the best (minimum) ns/op across the thread sweep is
// compared, so reports swept at different thread counts remain
// comparable. The reports' kernel tiers are printed alongside: a ratio
// between reports from different tiers (say avx2+fma and avx512) times
// different kernels, not a change in the code. CI runs it over the committed reports:
//
//	go run ./cmd/ratchet -old BENCH_PR9.json -new BENCH_PR10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type report struct {
	KernelTier string `json:"kernel_tier"`
	Benches    []struct {
		Name    string  `json:"name"`
		Threads int     `json:"threads"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"benches"`
	BatchedServing []struct {
		Batch            int     `json:"batch"`
		AmortizationVsB1 float64 `json:"amortization_vs_b1"`
	} `json:"batched_serving"`
	BatchedTraining []struct {
		Batch            int     `json:"batch"`
		AmortizationVsB1 float64 `json:"amortization_vs_b1"`
	} `json:"batched_training"`
	ConcurrentServing []struct {
		Sessions     int     `json:"sessions"`
		ScalingVsS1  float64 `json:"scaling_vs_s1"`
		BitwiseEqual bool    `json:"bitwise_equal"`
	} `json:"concurrent_serving"`
}

// best returns the minimum ns/op recorded for the named benchmark across
// the report's thread sweep, or 0 when the benchmark is absent.
func (r *report) best(name string) float64 {
	min := 0.0
	for _, b := range r.Benches {
		if b.Name == name && b.NsPerOp > 0 && (min == 0 || b.NsPerOp < min) {
			min = b.NsPerOp
		}
	}
	return min
}

// tierName is the report's kernel tier, or a marker for reports written
// before cmd/bench recorded it.
func tierName(r *report) string {
	if r.KernelTier == "" {
		return "(unrecorded)"
	}
	return r.KernelTier
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &report{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Benches) == 0 {
		return nil, fmt.Errorf("%s: no benches recorded", path)
	}
	return r, nil
}

func main() {
	oldPath := flag.String("old", "BENCH_PR9.json", "baseline bench report")
	newPath := flag.String("new", "BENCH_PR10.json", "candidate bench report")
	matmulRatio := flag.Float64("matmul-ratio", 1.3, "required old/new speedup on mat_mul")
	inferRatio := flag.Float64("infer-ratio", 1.0, "required old/new speedup on infer_step (below 1.0 tolerates cross-hardware noise)")
	f32Ratio := flag.Float64("f32-ratio", 1.2, "required infer_step/infer_step_f32 speedup within the new report")
	batchAmort := flag.Float64("batch-amort", 1.5, "required B=8 batched-serving amortization in the new report (0 skips)")
	sessionScaling := flag.Float64("session-scaling", 2.5, "required S=4 concurrent-serving throughput scaling vs S=1 in the new report (0 skips)")
	trainBatchAmort := flag.Float64("train-batch-amort", 1.3, "required B=8 batched-training per-sample amortization in the new report (0 skips)")
	flag.Parse()

	oldRep, err := load(*oldPath)
	if err != nil {
		fail("%v", err)
	}
	newRep, err := load(*newPath)
	if err != nil {
		fail("%v", err)
	}

	ok := true
	check := func(label string, got, want float64) {
		status := "ok  "
		if got < want {
			status = "FAIL"
			ok = false
		}
		fmt.Printf("  %s  %-28s %8.3fx (need >= %.2fx)\n", status, label, got, want)
	}

	fmt.Printf("ratchet: %s -> %s (best ns/op across thread sweeps)\n", *oldPath, *newPath)
	fmt.Printf("  kernel tier    old %s  new %s\n", tierName(oldRep), tierName(newRep))
	if oldRep.KernelTier != "" && newRep.KernelTier != "" && oldRep.KernelTier != newRep.KernelTier {
		fmt.Println("  note: the reports ran different kernel tiers; the ratios below include the tier change")
	}
	for _, name := range []string{"mat_mul", "infer_step"} {
		oldNs, newNs := oldRep.best(name), newRep.best(name)
		if oldNs == 0 || newNs == 0 {
			fail("benchmark %q missing from a report (old=%v new=%v)", name, oldNs, newNs)
		}
		want := *inferRatio
		if name == "mat_mul" {
			want = *matmulRatio
		}
		fmt.Printf("  %-14s old %14.0f ns/op  new %14.0f ns/op\n", name, oldNs, newNs)
		check(name+" old/new", oldNs/newNs, want)
	}
	if f32 := newRep.best("infer_step_f32"); f32 > 0 {
		f64 := newRep.best("infer_step")
		fmt.Printf("  %-14s f64 %14.0f ns/op  f32 %14.0f ns/op\n", "infer f32/f64", f64, f32)
		check("infer_step f64/f32", f64/f32, *f32Ratio)
	} else {
		fmt.Println("  (no infer_step_f32 in the new report; f32 ratchet skipped)")
	}
	if *batchAmort > 0 {
		amort := 0.0
		for _, p := range newRep.BatchedServing {
			if p.Batch == 8 {
				amort = p.AmortizationVsB1
			}
		}
		if amort == 0 {
			fail("no B=8 batched_serving entry in the new report (pass -batch-amort 0 to skip)")
		}
		check("batched serving B=8 amort", amort, *batchAmort)
	} else {
		fmt.Println("  (batched-serving amortization ratchet skipped)")
	}
	if *sessionScaling > 0 {
		scaling := 0.0
		found := false
		for _, p := range newRep.ConcurrentServing {
			if !p.BitwiseEqual {
				fail("concurrent_serving S=%d entry is not bitwise-equal to the single-session engine", p.Sessions)
			}
			if p.Sessions == 4 {
				scaling, found = p.ScalingVsS1, true
			}
		}
		if !found {
			fail("no S=4 concurrent_serving entry in the new report (pass -session-scaling 0 to skip)")
		}
		check("concurrent serving S=4 scaling", scaling, *sessionScaling)
	} else {
		fmt.Println("  (session-scaling ratchet skipped)")
	}
	if *trainBatchAmort > 0 {
		amort := 0.0
		for _, p := range newRep.BatchedTraining {
			if p.Batch == 8 {
				amort = p.AmortizationVsB1
			}
		}
		if amort == 0 {
			fail("no B=8 batched_training entry in the new report (pass -train-batch-amort 0 to skip)")
		}
		check("batched training B=8 amort", amort, *trainBatchAmort)
	} else {
		fmt.Println("  (batched-training amortization ratchet skipped)")
	}

	if !ok {
		fail("performance ratchet not held")
	}
	fmt.Println("ratchet: held")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ratchet: "+format+"\n", args...)
	os.Exit(1)
}
