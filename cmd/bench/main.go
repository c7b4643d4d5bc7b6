// Command bench runs the library's hot-path benchmarks — the forward GEMM,
// a full consistent NMP layer step, the end-to-end training step, and the
// compiled forward-only inference step — across a thread sweep, verifies
// the zero-allocation steady-state contract of the tensor/nn/gnn kernels
// (training and serving), measures the overlapped halo pipeline against
// the synchronous one on a multi-rank run (step time, halo time, and the
// exposed — not hidden behind compute — communication time), measures the
// inference serving tier (training forward vs engine step, request
// latency profile, single- and multi-rank, float64 and the float32
// serving twin), measures the batched serving tier (block-diagonal
// PredictBatch through the Server coalescer: throughput vs batch size
// against sequential Predicts on a latency-bound many-rank socket
// fabric), measures the concurrent serving tier (S independent serving
// sessions over one immutable compiled engine on a link-delay-emulated
// socket fabric: saturation throughput, tail latency under load, and the
// session-scaling efficiency the ratchet gates), measures the batched
// training tier (row-block StepBatch vs sequential Steps on a multi-rank
// socket fabric: per-sample amortization of the AllReduce, optimizer, and
// pack-invalidation overheads at bitwise-unchanged gradients), and writes
// a machine-readable JSON report (BENCH_PR10.json by default) so the
// performance trajectory is tracked across PRs.
//
// Requested sweep thread counts beyond runtime.NumCPU() are clamped (and
// the clamp printed): oversubscribed workers only time-slice against each
// other on the compute-bound kernels. Pass -oversubscribe to lift the cap
// and measure oversubscription deliberately. The nmp_layer / train_step /
// infer_step sweeps run with the garbage collector quiesced so background
// GC assists don't add run-to-run noise to the tracked numbers.
//
// Usage:
//
//	go run ./cmd/bench                 # full shapes, BENCH_PR10.json
//	go run ./cmd/bench -quick          # CI-sized shapes, 1 iteration
//	go run ./cmd/bench -oversubscribe  # sweep past NumCPU anyway
//	go run ./cmd/bench -baseline <ns>  # also report speedup vs a recorded
//	                                   # pre-PR train-step ns/op
//
// The process exits non-zero if any hot kernel allocates in steady state,
// the inference engine drifts bitwise from the training forward, or the
// float32 twin exceeds its relative-error gate, making it usable as a CI
// regression gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"meshgnn"
	"meshgnn/internal/comm"
	"meshgnn/internal/experiments"
	"meshgnn/internal/gnn"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

// BenchResult is one (benchmark, thread-count) measurement.
type BenchResult struct {
	Name        string  `json:"name"`
	Threads     int     `json:"threads"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// OverlapPoint is one synchronous-vs-overlapped comparison of a
// multi-rank training run: the overlap-on/overlap-off speedup point plus
// the halo-time decomposition behind it.
type OverlapPoint struct {
	Ranks   int    `json:"ranks"`
	Mode    string `json:"mode"`
	Threads int    `json:"threads"`
	Iters   int    `json:"iters"`
	// SyncNsPerIter / OverlapNsPerIter are rank-0 wall times per training
	// iteration; Speedup is their ratio (>1 means overlap won).
	SyncNsPerIter    float64 `json:"sync_ns_per_iter"`
	OverlapNsPerIter float64 `json:"overlap_ns_per_iter"`
	Speedup          float64 `json:"speedup"`
	// Halo/Exposed are per-iteration seconds from the comm layer:
	// Exposed is the time the rank sat blocked on messages (the cost the
	// phased pipeline exists to hide).
	SyncHaloSec       float64 `json:"sync_halo_sec_per_iter"`
	SyncExposedSec    float64 `json:"sync_exposed_sec_per_iter"`
	OverlapHaloSec    float64 `json:"overlap_halo_sec_per_iter"`
	OverlapExposedSec float64 `json:"overlap_exposed_sec_per_iter"`
	// Oversubscribed marks a point whose goroutine ranks outnumber the
	// host's cores: the ranks time-slice one another, so the speedup
	// column measures scheduler pressure, not hidden communication — read
	// the exposed-time columns instead (BENCH_PR5 recorded 0.64x at R=4 on
	// a single-CPU host for exactly this reason).
	Oversubscribed bool `json:"oversubscribed,omitempty"`
}

// BatchedServingPoint is one batched-serving measurement: B coalesced
// requests fused into one block-diagonal collective evaluation through
// the Server admission queue, against the same server serving the same
// requests one at a time. Results are bitwise-identical either way, so
// the amortization column is a pure scheduling/communication win.
type BatchedServingPoint struct {
	Ranks            int     `json:"ranks"`
	Mode             string  `json:"mode"`
	Batch            int     `json:"batch"`
	Rounds           int     `json:"rounds"`
	LinkDelayUs      float64 `json:"link_delay_us"`
	NsPerReq         float64 `json:"ns_per_req"`
	ThroughputReqSec float64 `json:"throughput_req_per_sec"`
	// AmortizationVsB1 is NsPerReq(B=1) / NsPerReq(B): how much cheaper a
	// request gets by riding a fused batch. The B=8 entry carries the
	// ratcheted floor.
	AmortizationVsB1 float64 `json:"amortization_vs_b1"`
}

// BatchedTrainingPoint is one row-block batched-training measurement: B
// same-mesh samples stacked through one fused StepBatch against the same
// fabric training them with B sequential Steps. The accumulated gradient
// is bitwise-equal either way (the StepBatch oracle sweep asserts it), so
// the per-sample amortization — one gradient AllReduce, one optimizer
// step, one pack-cache invalidation per B samples instead of per sample —
// is the only axis.
type BatchedTrainingPoint struct {
	Ranks       int     `json:"ranks"`
	Mode        string  `json:"mode"`
	Batch       int     `json:"batch"`
	Steps       int     `json:"steps"`
	NsPerSample float64 `json:"ns_per_sample"`
	// AmortizationVsB1 is NsPerSample(B=1) / NsPerSample(B): how much
	// cheaper one training sample gets by riding a row-block batch. The
	// B=8 entry carries the ratcheted floor (cmd/ratchet
	// -train-batch-amort).
	AmortizationVsB1 float64 `json:"amortization_vs_b1"`
}

// ConcurrentServingPoint is one multi-session serving measurement: S
// independent serving sessions (each its own collective group and
// coalescing dispatcher) sharing one immutable compiled engine behind a
// single Server front door, saturated by closed-loop clients on a 2-rank
// socket fabric whose links carry an emulated wire latency
// (comm.LinkDelay). The emulation makes the fabric latency-bound the way
// a real multi-host interconnect is — on a latency-bound fabric the
// sessions overlap independent exchange rounds, which is the effect the
// session-scaling ratchet gates; on a purely compute-bound single-host
// fabric S sessions only time-slice the cores and scaling stays ~1x.
// Every per-sample result is checked bitwise against the single-session
// engine, so throughput is the only axis.
type ConcurrentServingPoint struct {
	Ranks       int     `json:"ranks"`
	Mode        string  `json:"mode"`
	Sessions    int     `json:"sessions"`
	Clients     int     `json:"clients"`
	LinkDelayUs float64 `json:"link_delay_us"`
	Requests    int64   `json:"requests"`
	MeasureSec  float64 `json:"measure_sec"`

	ThroughputReqSec float64 `json:"throughput_req_per_sec"`
	LatencyP50Ns     float64 `json:"latency_p50_ns"`
	LatencyP99Ns     float64 `json:"latency_p99_ns"`
	LatencyMaxNs     float64 `json:"latency_max_ns"`

	// ScalingVsS1 is ThroughputReqSec(S) / ThroughputReqSec(S=1): the
	// session-scaling efficiency. The S=4 entry carries the ratcheted
	// floor (cmd/ratchet -session-scaling).
	ScalingVsS1 float64 `json:"scaling_vs_s1"`
	// BitwiseEqual records that every served prediction matched the
	// single-session reference bit for bit; the run aborts if any
	// diverged, so a committed report always carries true.
	BitwiseEqual bool `json:"bitwise_equal"`
}

// Report is the schema of the bench report (BENCH_PR10.json).
type Report struct {
	GeneratedBy string `json:"generated_by"`
	Quick       bool   `json:"quick"`
	GoMaxProcs  int    `json:"go_max_procs"`
	NumCPU      int    `json:"num_cpu"`
	// KernelTier is the float64 kernel tier the run used
	// (tensor.KernelTier): "avx512", "avx2+fma" or "generic". Reports
	// from different tiers time different kernels, so a ratio between
	// them is not a code speed-up.
	KernelTier string `json:"kernel_tier"`

	// Benches holds ns/step, allocs/step, and bytes/step per kernel and
	// thread count.
	Benches []BenchResult `json:"benches"`

	// Overlap holds the synchronous-vs-overlapped halo pipeline
	// comparison on multi-rank runs (exposed halo time and the
	// overlap-on/off step-time speedup).
	Overlap []OverlapPoint `json:"overlap"`

	// Inference holds the serving tier: the compiled forward-only engine
	// against the training Model.Forward on the same mesh (bitwise-equal
	// predictions, so the speedup is pure implementation), plus request
	// throughput and the latency profile.
	Inference []experiments.ServingPoint `json:"inference"`

	// BatchedServing holds the block-diagonal batching tier: request cost
	// vs batch size through the Server coalescer on a many-rank socket
	// fabric, where the batch-invariant halo message count and the single
	// fused dispatch amortize the per-request overhead.
	BatchedServing []BatchedServingPoint `json:"batched_serving"`

	// BatchedTraining holds the row-block batched-training tier: training
	// cost per sample vs batch size on a multi-rank socket fabric, where
	// one fused step amortizes the AllReduce, the optimizer, and the pack
	// invalidation over B samples with bitwise-unchanged gradients.
	BatchedTraining []BatchedTrainingPoint `json:"batched_training"`

	// ConcurrentServing holds the multi-session serving tier: saturation
	// throughput and tail latency vs session count over one shared
	// immutable compiled engine on the link-delay-emulated socket fabric.
	ConcurrentServing []ConcurrentServingPoint `json:"concurrent_serving"`

	// SteadyStateAllocs maps each hot kernel to its AllocsPerRun count
	// after warm-up (threads=1). The zero-allocation contract requires
	// every entry to be 0.
	SteadyStateAllocs map[string]float64 `json:"steady_state_allocs"`

	// BaselineTrainStepNs is the recorded pre-optimization train-step
	// ns/op this run is compared against (0 when not provided);
	// TrainStepSpeedup is baseline / best measured train-step ns/op.
	BaselineTrainStepNs float64 `json:"baseline_train_step_ns_per_op,omitempty"`
	TrainStepSpeedup    float64 `json:"train_step_speedup,omitempty"`
}

func main() {
	quick := flag.Bool("quick", false, "CI-sized shapes and a single timed iteration per benchmark")
	out := flag.String("o", "BENCH_PR10.json", "output JSON path")
	threadList := flag.String("threads", "1,2,4,8", "comma-separated thread counts to sweep")
	oversub := flag.Bool("oversubscribe", false, "lift the NumCPU clamp on the thread sweep")
	baseline := flag.Float64("baseline", 0, "pre-optimization train-step ns/op to compute the speedup against")
	flag.Parse()

	threads, err := parseThreads(*threadList)
	if err != nil {
		fatal(err)
	}
	meshgnn.SetOversubscribe(*oversub)

	// testing.Benchmark honors the -test.benchtime flag; register the
	// testing flags so it can be set programmatically.
	testing.Init()
	// 6 iterations per kernel: testing.Benchmark reports the mean over N,
	// and at 2x a single descheduled iteration skewed a committed kernel
	// number by 20%+ run to run; the tracked kernels cost at most ~1 s/op
	// so the extra iterations add seconds, not minutes.
	benchtime := "6x"
	if *quick {
		benchtime = "1x"
	}
	if err := flag.Lookup("test.benchtime").Value.Set(benchtime); err != nil {
		fatal(err)
	}

	rep := &Report{
		GeneratedBy:       "cmd/bench",
		Quick:             *quick,
		GoMaxProcs:        runtime.GOMAXPROCS(0),
		NumCPU:            runtime.NumCPU(),
		KernelTier:        tensor.KernelTier(),
		SteadyStateAllocs: map[string]float64{},
	}

	fmt.Printf("bench: quick=%v threads=%v benchtime=%s kernel_tier=%s\n", *quick, threads, benchtime, rep.KernelTier)
	swept := map[int]bool{}
	for _, t := range threads {
		eff := parallel.Clamp(t)
		if eff != t {
			fmt.Printf("bench: threads=%d clamped to %d (NumCPU=%d; pass -oversubscribe to lift the cap)\n",
				t, eff, runtime.NumCPU())
		}
		if swept[eff] {
			fmt.Printf("bench: skipping duplicate sweep at effective threads=%d\n", eff)
			continue
		}
		swept[eff] = true
		runSweep(rep, *quick, eff)
	}
	meshgnn.SetParallelism(0, true)

	measureOverlap(rep, *quick)
	meshgnn.SetParallelism(0, true)

	measureInference(rep, *quick)
	meshgnn.SetParallelism(0, true)

	measureBatchedServing(rep, *quick)
	meshgnn.SetParallelism(0, true)

	measureConcurrentServing(rep, *quick)
	meshgnn.SetParallelism(0, true)

	measureBatchedTraining(rep, *quick)
	meshgnn.SetParallelism(0, true)

	checkSteadyStateAllocs(rep, *quick)

	if *baseline > 0 {
		rep.BaselineTrainStepNs = *baseline
		best := 0.0
		for _, b := range rep.Benches {
			if b.Name == "train_step" && (best == 0 || b.NsPerOp < best) {
				best = b.NsPerOp
			}
		}
		if best > 0 {
			rep.TrainStepSpeedup = *baseline / best
			fmt.Printf("bench: train-step speedup vs baseline: %.2fx\n", rep.TrainStepSpeedup)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("bench: wrote %s\n", *out)

	bad := false
	for name, n := range rep.SteadyStateAllocs {
		if n != 0 {
			fmt.Fprintf(os.Stderr, "bench: FAIL %s allocates %v times per op in steady state\n", name, n)
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
	fmt.Println("bench: steady-state allocation check passed (0 allocs/op in all hot kernels)")
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bench: bad thread count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// quiesced runs f with the garbage collector disabled (after forcing a
// collection so the heap starts clean) and restores the previous GC
// target afterwards. The timed loops inside f are all steady-state
// zero-allocation kernels, so the only thing this removes is background
// GC assist noise — the 2–18 allocs/op the harness used to attribute to
// the sweeps when a cycle happened to land inside a timed window.
func quiesced(f func()) {
	prev := debug.SetGCPercent(-1)
	runtime.GC()
	defer debug.SetGCPercent(prev)
	f()
}

// recordQuiesced is record with the GC quiesced around the whole
// benchmark run (warm-up included, so no cycle lands inside a timed
// window).
func recordQuiesced(rep *Report, name string, threads int, f func(b *testing.B)) {
	quiesced(func() { record(rep, name, threads, f) })
}

// record runs one benchmark body under testing.Benchmark and appends the
// measurement.
func record(rep *Report, name string, threads int, f func(b *testing.B)) {
	r := testing.Benchmark(f)
	res := BenchResult{
		Name:        name,
		Threads:     threads,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	rep.Benches = append(rep.Benches, res)
	fmt.Printf("  %-12s threads=%d  %14.0f ns/op  %8d B/op  %6d allocs/op\n",
		name, threads, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
}

// runSweep measures the three tracked benchmarks at one thread count.
func runSweep(rep *Report, quick bool, threads int) {
	meshgnn.SetParallelism(threads, true)

	// Forward GEMM at the large-model edge shape (quick: a quarter-height
	// slice of the same shape).
	rows := 49152
	if quick {
		rows = 12288
	}
	const in, out = 96, 32
	record(rep, "mat_mul", threads, func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		a := tensor.New(rows, in)
		w := tensor.New(in, out)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64()
		}
		dst := tensor.New(rows, out)
		tensor.MatMul(dst, a, w) // warm-up: populate kernel task pools
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.MatMul(dst, a, w)
		}
	})

	// One consistent NMP layer forward+backward on a real sub-graph at
	// the large model's hidden width.
	ex, ey, ez, p := 8, 8, 8, 3
	if quick {
		ex, ey, ez, p = 4, 4, 4, 2
	}
	recordQuiesced(rep, "nmp_layer", threads, func(b *testing.B) {
		withSingleRank(b, ex, ey, ez, p, func(b *testing.B, r *meshgnn.Rank) {
			const hidden = 32
			rng := rand.New(rand.NewSource(3))
			layer := gnn.NewNMPLayer("bench", hidden, 2, rng)
			arena := tensor.NewArena()
			layer.SetArena(arena)
			params := layer.Params()
			x := tensor.New(r.Graph.NumLocal(), hidden)
			e := tensor.New(r.Graph.NumEdges(), hidden)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			for i := range e.Data {
				e.Data[i] = rng.NormFloat64()
			}
			step := func() {
				arena.Reset()
				nn.ZeroGrads(params)
				xo, eo := layer.Forward(r.Ctx, x, e)
				layer.Backward(xo, eo)
			}
			step() // warm-up: record the arena
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	})

	// End-to-end training step (encode, M NMP layers, decode, consistent
	// loss, backward, AllReduce, SGD) for the large model at R=1 — the
	// throughput quantity of the paper's Fig. 7.
	ex, ey, ez, p = 6, 6, 6, 3
	if quick {
		ex, ey, ez, p = 3, 3, 3, 2
	}
	recordQuiesced(rep, "train_step", threads, func(b *testing.B) {
		withSingleRank(b, ex, ey, ez, p, func(b *testing.B, r *meshgnn.Rank) {
			model, err := meshgnn.NewModel(meshgnn.LargeConfig())
			if err != nil {
				b.Fatal(err)
			}
			trainer := meshgnn.NewTrainer(model, meshgnn.NewSGD(0.01))
			x := r.Sample(meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0)
			trainer.Step(r.Ctx, x, x) // warm-up: record the arena
			trainer.Step(r.Ctx, x, x) // second pass settles lazy double-buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trainer.Step(r.Ctx, x, x)
			}
		})
	})

	// Forward-only serving step for the large model on the same mesh —
	// the compiled engine (no backward buffers, cached static-edge
	// encoding), bitwise-equal to Model.Forward.
	recordQuiesced(rep, "infer_step", threads, func(b *testing.B) {
		withSingleRank(b, ex, ey, ez, p, func(b *testing.B, r *meshgnn.Rank) {
			model, err := meshgnn.NewModel(meshgnn.LargeConfig())
			if err != nil {
				b.Fatal(err)
			}
			eng, err := meshgnn.NewInference(model)
			if err != nil {
				b.Fatal(err)
			}
			x := r.Sample(meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0)
			eng.Predict(r.Ctx, x) // warm-up: bind the engine
			eng.Predict(r.Ctx, x) // second pass settles the output double-buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Predict(r.Ctx, x)
			}
		})
	})

	// The float32 serving twin on the identical mesh and model: same
	// compiled-engine step, parameters and static-edge cache demoted once
	// at compile time, GEMMs through the packed f32 kernels. Tolerance
	// against the f64 oracle is gated separately (measureInference and the
	// f32 parity tests); here only the step time is tracked — the ratchet
	// requires it beat infer_step.
	recordQuiesced(rep, "infer_step_f32", threads, func(b *testing.B) {
		withSingleRank(b, ex, ey, ez, p, func(b *testing.B, r *meshgnn.Rank) {
			cfg := meshgnn.LargeConfig()
			cfg.Precision = meshgnn.Float32
			model, err := meshgnn.NewModel(cfg)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := meshgnn.NewInference(model)
			if err != nil {
				b.Fatal(err)
			}
			x := r.Sample(meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0)
			eng.Predict(r.Ctx, x) // warm-up: bind the engine
			eng.Predict(r.Ctx, x) // second pass settles the output double-buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Predict(r.Ctx, x)
			}
		})
	})
}

// measureInference records the serving tier: the compiled engine against
// the training forward at R=1 and R=2 (sync and overlapped, float64 and
// the float32 twin), via the same collective measurement body cmd/serve
// reports. Parity is asserted — any bitwise drift between the float64
// serving path and the training kernels fails the process, and the
// float32 twin must stay inside its relative-error tolerance gate.
func measureInference(rep *Report, quick bool) {
	meshgnn.SetParallelism(1, true)
	elems, p, requests, rollout := 5, 3, 20, 10
	if quick {
		elems, p, requests, rollout = 3, 2, 5, 3
	}
	fmt.Println("bench: inference serving tier (training forward vs compiled engine):")
	type point struct {
		ranks   int
		overlap bool
		f32     bool
	}
	points := []point{
		{1, false, false}, {2, false, false}, {2, true, false},
		// The float32 twin: single-rank and across a real halo exchange,
		// gated on relative error against the float64 training forward.
		{1, false, true}, {2, false, true},
	}
	for _, pc := range points {
		box, err := mesh.NewBox(pc.ranks*elems, elems, elems, p, [3]bool{true, true, true})
		if err != nil {
			fatal(err)
		}
		part, err := partition.NewCartesian(box, pc.ranks, partition.Slabs)
		if err != nil {
			fatal(err)
		}
		locals, err := graph.BuildAll(box, part)
		if err != nil {
			fatal(err)
		}
		cfg := meshgnn.LargeConfig()
		cfg.Overlap = pc.overlap
		if pc.f32 {
			cfg.Precision = meshgnn.Float32
		}
		var pt experiments.ServingPoint
		err = comm.Run(pc.ranks, func(c *comm.Comm) error {
			got, err := experiments.MeasureInferenceRank(c, box, locals[c.Rank()],
				comm.SendRecvMode, cfg, requests, rollout)
			if err != nil || c.Rank() != 0 {
				return err
			}
			pt = got
			return nil
		})
		if err != nil {
			fatal(err)
		}
		rep.Inference = append(rep.Inference, pt)
		pipeline := "sync"
		if pc.overlap {
			pipeline = "overlap"
		}
		if pc.f32 {
			fmt.Printf("  R=%d %-7s  train-fwd %12.0f ns  infer %12.0f ns  speedup %.3fx  p99 %.3f ms  f32 max-rel %.3g (traj %.3g)\n",
				pt.Ranks, pipeline, pt.TrainForwardNs, pt.InferNs, pt.Speedup, pt.LatencyP99Ns/1e6, pt.ParityMaxRel, pt.RolloutMaxRel)
			if pt.ParityMaxRel > experiments.F32Tolerance {
				fmt.Fprintf(os.Stderr, "bench: FAIL float32 engine rel error %.3g exceeds the %.1g tolerance gate\n",
					pt.ParityMaxRel, experiments.F32Tolerance)
				os.Exit(1)
			}
			continue
		}
		fmt.Printf("  R=%d %-7s  train-fwd %12.0f ns  infer %12.0f ns  speedup %.3fx  p99 %.3f ms  parity-diff %d\n",
			pt.Ranks, pipeline, pt.TrainForwardNs, pt.InferNs, pt.Speedup, pt.LatencyP99Ns/1e6, pt.ParityDiffBits)
		if pt.ParityDiffBits != 0 {
			fmt.Fprintf(os.Stderr, "bench: FAIL inference engine diverged bitwise from Model.Forward (%d values)\n",
				pt.ParityDiffBits)
			os.Exit(1)
		}
	}
}

// measureBatchedServing records the block-diagonal batching tier: B
// concurrent Predict requests coalesced by the Server's admission queue
// into one fused collective evaluation, against the same fabric serving
// the same request stream one at a time. The shape is deliberately
// latency-bound — many ranks over the socket transport with a tiny
// per-rank graph, links carrying an emulated wire latency
// (comm.LinkDelay, the same constant as the concurrent-serving tier) —
// because that is the regime batching exists for: the halo message
// count is batch-invariant, so a fused batch pays one exchange round
// where B sequential requests pay B. Without the emulated delay a
// single-host fabric is compute-bound and the measured amortization
// collapses toward the GEMM-sweep saving alone, leaving the committed
// B=8 floor hostage to scheduler noise. Per-sample results are
// bitwise-identical either way (the engine's batched-parity sweep
// asserts it; LinkDelay changes schedules, never data), so throughput
// is the only axis.
func measureBatchedServing(rep *Report, quick bool) {
	meshgnn.SetParallelism(1, true)
	const ranks, elems, p = 8, 2, 1
	const linkDelay = 500 * time.Microsecond
	// Best-of-7: the amortization ratio divides two best-of-reps minima,
	// and on an oversubscribed single-core host the per-rep aggregates
	// drift enough that 3 reps leave the ratio ±0.1x run to run. Seven
	// reps of ~0.1 s each converge the minima at negligible cost next to
	// the kernel sweep.
	reqsPerRep, reps := 96, 7
	if quick {
		reqsPerRep, reps = 32, 2
	}
	m, err := meshgnn.NewMesh(ranks*elems, elems, elems, p, meshgnn.FullyPeriodic)
	if err != nil {
		fatal(err)
	}
	sys, err := meshgnn.NewSystem(m, ranks, meshgnn.Slabs)
	if err != nil {
		fatal(err)
	}
	model, err := meshgnn.NewModel(meshgnn.SmallConfig())
	if err != nil {
		fatal(err)
	}
	f := meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}
	inputs := make([]*meshgnn.Matrix, sys.Ranks)
	for r := range inputs {
		inputs[r] = meshgnn.SampleField(f, sys.Locals[r], 0.25)
	}
	fmt.Printf("bench: batched serving tier (R=%d sockets, %d nodes/rank, %v link delay, best of %d reps):\n",
		ranks, inputs[0].Rows, linkDelay, reps)
	var baseNs float64
	for _, batch := range []int{1, 2, 4, 8} {
		srv, err := sys.ServeWith(meshgnn.Sockets, meshgnn.NeighborAllToAll, model, meshgnn.ServeOptions{
			MaxBatch:      batch,
			BatchWindow:   100 * time.Millisecond,
			WrapTransport: meshgnn.LinkDelay(linkDelay),
		})
		if err != nil {
			fatal(err)
		}
		var mu sync.Mutex
		var reqErr error
		burst := func() {
			var wg sync.WaitGroup
			for b := 0; b < batch; b++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := srv.Predict(inputs); err != nil {
						mu.Lock()
						if reqErr == nil {
							reqErr = err
						}
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
		}
		bursts := reqsPerRep / batch
		burst() // bind the engines (per-batch arena recording)
		burst() // settle the double-buffers and warm the pools
		best := 0.0
		for rp := 0; rp < reps; rp++ {
			start := time.Now()
			for i := 0; i < bursts; i++ {
				burst()
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(bursts*batch)
			if best == 0 || ns < best {
				best = ns
			}
		}
		if cerr := srv.Close(); reqErr == nil && cerr != nil {
			reqErr = cerr
		}
		if reqErr != nil {
			fatal(reqErr)
		}
		if batch == 1 {
			baseNs = best
		}
		pt := BatchedServingPoint{
			Ranks: ranks, Mode: "na2a", Batch: batch, Rounds: bursts * reps,
			LinkDelayUs:      float64(linkDelay.Microseconds()),
			NsPerReq:         best,
			ThroughputReqSec: 1e9 / best,
			AmortizationVsB1: baseNs / best,
		}
		rep.BatchedServing = append(rep.BatchedServing, pt)
		fmt.Printf("  B=%d  %12.0f ns/req  %10.1f req/s  amortization %.2fx\n",
			batch, pt.NsPerReq, pt.ThroughputReqSec, pt.AmortizationVsB1)
	}
}

// measureConcurrentServing records the multi-session serving tier: one
// Server whose engine is compiled once (immutable parameter twins,
// pre-packed GEMM panels, shared static-edge cache) and served through S
// independent sessions, each its own 2-rank socket collective group,
// saturated by 4*S closed-loop clients. The links carry an emulated wire
// latency (comm.LinkDelay, 500µs) so the fabric is latency-bound the way
// a real multi-host interconnect is: a single session spends most of
// each request blocked on halo round-trips, and S sessions overlap S
// independent rounds — the throughput scaling cmd/ratchet
// -session-scaling floors at 2.5x for S=4. On a compute-bound in-host
// fabric (no delay) sessions merely time-slice the cores and the scaling
// column would read ~1x, which is why the emulation is part of the tier,
// not a convenience. Every served answer is compared bitwise against a
// single-session reference; any divergence aborts the run.
func measureConcurrentServing(rep *Report, quick bool) {
	meshgnn.SetParallelism(1, true)
	const ranks, elems, p = 2, 3, 1
	delay := 500 * time.Microsecond
	warmup, measure := 400*time.Millisecond, 2*time.Second
	if quick {
		warmup, measure = 150*time.Millisecond, 600*time.Millisecond
	}
	m, err := meshgnn.NewMesh(ranks*elems, elems, elems, p, meshgnn.FullyPeriodic)
	if err != nil {
		fatal(err)
	}
	sys, err := meshgnn.NewSystem(m, ranks, meshgnn.Slabs)
	if err != nil {
		fatal(err)
	}
	model, err := meshgnn.NewModel(meshgnn.SmallConfig())
	if err != nil {
		fatal(err)
	}
	f := meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}
	inputs := make([]*meshgnn.Matrix, sys.Ranks)
	for r := range inputs {
		inputs[r] = meshgnn.SampleField(f, sys.Locals[r], 0.25)
	}
	// Reference: the training model evaluated collectively — the bitwise
	// contract every concurrently served answer must meet.
	want, err := meshgnn.RunCollect(sys, meshgnn.NeighborAllToAll, func(r *meshgnn.Rank) (*meshgnn.Matrix, error) {
		mdl, err := meshgnn.NewModel(meshgnn.SmallConfig())
		if err != nil {
			return nil, err
		}
		return mdl.Forward(r.Ctx, inputs[r.ID()]).Clone(), nil
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("bench: concurrent serving tier (R=%d sockets, %v emulated link delay, %v measured):\n",
		ranks, delay, measure)
	var baseThroughput float64
	for _, sessions := range []int{1, 2, 4} {
		srv, err := sys.ServeWith(meshgnn.Sockets, meshgnn.NeighborAllToAll, model, meshgnn.ServeOptions{
			Sessions:      sessions,
			MaxBatch:      1, // no coalescing: the scaling column must not ride batch amortization
			WrapTransport: meshgnn.LinkDelay(delay),
		})
		if err != nil {
			fatal(err)
		}
		clients := 4 * sessions
		recs := make([]*experiments.LatencyRecorder, clients)
		mismatches := make([]int64, clients)
		errs := make([]error, clients)
		recStart := time.Now().Add(warmup)
		stop := recStart.Add(measure)
		var wg sync.WaitGroup
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				rec := experiments.NewLatencyRecorder(experiments.DefaultLatencySamples)
				recs[cl] = rec
				for {
					t0 := time.Now()
					if t0.After(stop) {
						return
					}
					outs, err := srv.Predict(inputs)
					if err != nil {
						errs[cl] = err
						return
					}
					if !t0.Before(recStart) {
						rec.Record(float64(time.Since(t0).Nanoseconds()))
					}
					for r := range want {
						if !bitwiseEqual(outs[r], want[r]) {
							mismatches[cl]++
						}
					}
				}
			}(cl)
		}
		wg.Wait()
		if cerr := srv.Close(); cerr != nil {
			fatal(cerr)
		}
		rec := experiments.NewLatencyRecorder(experiments.DefaultLatencySamples)
		var bad int64
		for cl := range recs {
			if errs[cl] != nil {
				fatal(errs[cl])
			}
			rec.Merge(recs[cl])
			bad += mismatches[cl]
		}
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "bench: FAIL %d concurrently served predictions diverged bitwise from the single-session reference (S=%d)\n",
				bad, sessions)
			os.Exit(1)
		}
		throughput := float64(rec.Count()) / measure.Seconds()
		if sessions == 1 {
			baseThroughput = throughput
		}
		pt := ConcurrentServingPoint{
			Ranks: ranks, Mode: "na2a", Sessions: sessions, Clients: clients,
			LinkDelayUs: float64(delay.Microseconds()),
			Requests:    rec.Count(), MeasureSec: measure.Seconds(),
			ThroughputReqSec: throughput,
			LatencyP50Ns:     rec.Quantile(50),
			LatencyP99Ns:     rec.Quantile(99),
			LatencyMaxNs:     rec.Max(),
			ScalingVsS1:      throughput / baseThroughput,
			BitwiseEqual:     true,
		}
		rep.ConcurrentServing = append(rep.ConcurrentServing, pt)
		fmt.Printf("  S=%d  %6d req  %10.1f req/s  p50 %7.3f ms  p99 %7.3f ms  max %7.3f ms  scaling %.2fx\n",
			sessions, pt.Requests, pt.ThroughputReqSec,
			pt.LatencyP50Ns/1e6, pt.LatencyP99Ns/1e6, pt.LatencyMaxNs/1e6, pt.ScalingVsS1)
	}
}

// bitwiseEqual reports whether two matrices carry identical bit patterns
// value for value — the concurrency tier's equality contract (no
// tolerance: sessions share one compiled engine, so every code path is
// the same arithmetic).
func bitwiseEqual(a, b *meshgnn.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// measureOverlap times the end-to-end training step on a multi-rank run
// with the synchronous and the overlapped halo pipeline (bitwise-equal
// results, so only the wall clock differs) and records the speedup point
// plus the halo/exposed time decomposition. Single-host goroutine ranks
// time-share the cores, so the absolute speedup is conservative; the
// exposed-time shrinkage is the direct signal that the transfer is being
// hidden.
func measureOverlap(rep *Report, quick bool) {
	meshgnn.SetParallelism(1, true) // one worker per rank: no pool contention
	elems, p, iters := 4, 3, 5
	rankCounts := []int{2, 4}
	if quick {
		elems, p, iters = 3, 2, 3
		rankCounts = []int{2}
	}
	fmt.Println("bench: overlap vs synchronous halo pipeline (SendRecv mode):")
	if runtime.NumCPU() < 2 {
		fmt.Println("  (single-CPU host: goroutine ranks time-share one core, so the transfer")
		fmt.Println("   cannot progress during compute and no overlap win is measurable here;")
		fmt.Println("   the exposed-time column is still exact, and correctness is asserted")
		fmt.Println("   bitwise by the consistency harness regardless of core count)")
	}
	for _, ranks := range rankCounts {
		m, err := meshgnn.NewMesh(ranks*elems, elems, elems, p, meshgnn.FullyPeriodic)
		if err != nil {
			fatal(err)
		}
		sys, err := meshgnn.NewSystem(m, ranks, meshgnn.Slabs)
		if err != nil {
			fatal(err)
		}
		run := func(overlap bool) (nsPerIter, haloSec, exposedSec float64) {
			cfg := meshgnn.LargeConfig()
			cfg.Overlap = overlap
			err := sys.Run(meshgnn.SendRecv, func(r *meshgnn.Rank) error {
				model, err := meshgnn.NewModel(cfg)
				if err != nil {
					return err
				}
				trainer := meshgnn.NewTrainer(model, meshgnn.NewSGD(0.01))
				x := r.Sample(meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0)
				trainer.Step(r.Ctx, x, x) // warm-up: record arenas, pools
				base := r.Ctx.Comm.Stats
				r.Ctx.Comm.Barrier()
				start := time.Now()
				for it := 0; it < iters; it++ {
					trainer.Step(r.Ctx, x, x)
				}
				r.Ctx.Comm.Barrier()
				elapsed := time.Since(start)
				if r.ID() != 0 {
					return nil
				}
				nsPerIter = float64(elapsed.Nanoseconds()) / float64(iters)
				haloSec = (r.Ctx.Comm.Stats.HaloSeconds - base.HaloSeconds) / float64(iters)
				exposedSec = (r.Ctx.Comm.Stats.HaloExposedSeconds - base.HaloExposedSeconds) / float64(iters)
				return nil
			})
			if err != nil {
				fatal(err)
			}
			return nsPerIter, haloSec, exposedSec
		}
		syncNs, syncHalo, syncExp := run(false)
		overNs, overHalo, overExp := run(true)
		pt := OverlapPoint{
			Ranks: ranks, Mode: "sendrecv", Threads: 1, Iters: iters,
			SyncNsPerIter: syncNs, OverlapNsPerIter: overNs, Speedup: syncNs / overNs,
			SyncHaloSec: syncHalo, SyncExposedSec: syncExp,
			OverlapHaloSec: overHalo, OverlapExposedSec: overExp,
			Oversubscribed: ranks > runtime.NumCPU(),
		}
		rep.Overlap = append(rep.Overlap, pt)
		fmt.Printf("  R=%d  sync %12.0f ns/iter (exposed %.3f ms)  overlap %12.0f ns/iter (exposed %.3f ms)  speedup %.3fx\n",
			ranks, syncNs, syncExp*1e3, overNs, overExp*1e3, pt.Speedup)
		if pt.Oversubscribed {
			fmt.Printf("       ^ R=%d ranks oversubscribe %d core(s): the ranks time-slice each other, so\n",
				ranks, runtime.NumCPU())
			fmt.Println("         this speedup column is scheduler pressure, not overlap efficiency —")
			fmt.Println("         judge the exposed-time columns; on multi-core hosts this point recovers")
		}
	}
}

// measureBatchedTraining records the row-block batched-training tier: B
// same-mesh samples through one fused StepBatch on a 4-rank socket fabric
// with a tiny per-rank graph, against the B=1 baseline (Step is StepBatch
// over one sample, so the baseline IS the sequential path). The
// shape is deliberately overhead-bound — small model, small graph, real
// socket collectives — because that is the regime training batching
// exists for: the fused step pays one gradient AllReduce, one optimizer
// step, and one pack-cache invalidation where B sequential steps pay B of
// each, while the accumulated gradient stays bitwise-equal (asserted by
// the internal/gnn oracle sweep, not re-measured here).
func measureBatchedTraining(rep *Report, quick bool) {
	meshgnn.SetParallelism(1, true)
	const ranks, elems, p = 4, 2, 1
	// Best-of-7 for the same reason as the serving tier: the ratio of two
	// best-of-reps minima needs enough reps to converge on a time-sliced
	// single-core host.
	steps, reps := 6, 7
	if quick {
		steps, reps = 3, 2
	}
	m, err := meshgnn.NewMesh(ranks*elems, elems, elems, p, meshgnn.FullyPeriodic)
	if err != nil {
		fatal(err)
	}
	sys, err := meshgnn.NewSystem(m, ranks, meshgnn.Slabs)
	if err != nil {
		fatal(err)
	}
	f := meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}
	fmt.Printf("bench: batched training tier (R=%d sockets, small model, %d fused steps/rep, best of %d reps):\n",
		ranks, steps, reps)
	var baseNs float64
	for _, batch := range []int{1, 2, 4, 8} {
		var nsPerSample float64
		err := sys.RunOn(meshgnn.Sockets, meshgnn.NeighborAllToAll, func(r *meshgnn.Rank) error {
			model, err := meshgnn.NewModel(meshgnn.SmallConfig())
			if err != nil {
				return err
			}
			trainer := meshgnn.NewTrainer(model, meshgnn.NewSGD(0.01))
			xs := make([]*meshgnn.Matrix, batch)
			ts := make([]*meshgnn.Matrix, batch)
			for b := range xs {
				xs[b] = r.Sample(f, 0.1*float64(b))
				ts[b] = r.Sample(f, 0.1*float64(b)+0.05)
			}
			trainer.StepBatch(r.Ctx, xs, ts) // bind: record the batched arena
			trainer.StepBatch(r.Ctx, xs, ts)
			best := 0.0
			for rp := 0; rp < reps; rp++ {
				r.Ctx.Comm.Barrier()
				start := time.Now()
				for s := 0; s < steps; s++ {
					trainer.StepBatch(r.Ctx, xs, ts)
				}
				r.Ctx.Comm.Barrier()
				ns := float64(time.Since(start).Nanoseconds()) / float64(steps*batch)
				if best == 0 || ns < best {
					best = ns
				}
			}
			if r.ID() == 0 {
				nsPerSample = best
			}
			return nil
		})
		if err != nil {
			fatal(err)
		}
		if batch == 1 {
			baseNs = nsPerSample
		}
		pt := BatchedTrainingPoint{
			Ranks: ranks, Mode: "na2a", Batch: batch, Steps: steps * reps,
			NsPerSample:      nsPerSample,
			AmortizationVsB1: baseNs / nsPerSample,
		}
		rep.BatchedTraining = append(rep.BatchedTraining, pt)
		fmt.Printf("  B=%d  %12.0f ns/sample  amortization %.2fx\n",
			batch, pt.NsPerSample, pt.AmortizationVsB1)
	}
}

// withSingleRank builds a single-rank periodic system and runs fn inside
// its SPMD closure.
func withSingleRank(b *testing.B, ex, ey, ez, p int, fn func(b *testing.B, r *meshgnn.Rank)) {
	m, err := meshgnn.NewMesh(ex, ey, ez, p, meshgnn.FullyPeriodic)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := meshgnn.NewSystem(m, 1, meshgnn.Slabs)
	if err != nil {
		b.Fatal(err)
	}
	err = sys.Run(meshgnn.NoExchange, func(r *meshgnn.Rank) error {
		fn(b, r)
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// checkSteadyStateAllocs measures AllocsPerRun for the hot kernels after
// warm-up, at threads=1 (which isolates kernel-owned allocations from the
// pooled-but-GC-sensitive parallel dispatch).
func checkSteadyStateAllocs(rep *Report, quick bool) {
	parallel.Configure(1, true)
	defer parallel.Configure(0, true)

	// MatMul.
	{
		a := tensor.New(256, 32)
		w := tensor.New(32, 16)
		dst := tensor.New(256, 16)
		tensor.MatMul(dst, a, w)
		rep.SteadyStateAllocs["mat_mul"] = testing.AllocsPerRun(10, func() {
			tensor.MatMul(dst, a, w)
		})
	}

	// MLP forward+backward on an arena.
	{
		rng := rand.New(rand.NewSource(7))
		m := nn.NewMLP("b", 12, 32, 8, 2, true, rng)
		arena := tensor.NewArena()
		m.SetArena(arena)
		params := m.Params()
		x := tensor.New(300, 12)
		dy := tensor.New(300, 8)
		pass := func() {
			arena.Reset()
			nn.ZeroGrads(params)
			m.Forward(x)
			m.Backward(dy)
		}
		pass()
		rep.SteadyStateAllocs["mlp_step"] = testing.AllocsPerRun(10, pass)
	}

	// Full NMP layer step and train step on a real sub-graph.
	ex, ey, ez, p := 4, 4, 4, 2
	if quick {
		ex, ey, ez, p = 3, 3, 3, 2
	}
	m, err := meshgnn.NewMesh(ex, ey, ez, p, meshgnn.FullyPeriodic)
	if err != nil {
		fatal(err)
	}
	sys, err := meshgnn.NewSystem(m, 1, meshgnn.Slabs)
	if err != nil {
		fatal(err)
	}
	err = sys.Run(meshgnn.NoExchange, func(r *meshgnn.Rank) error {
		rng := rand.New(rand.NewSource(11))
		layer := gnn.NewNMPLayer("b", 16, 2, rng)
		arena := tensor.NewArena()
		layer.SetArena(arena)
		params := layer.Params()
		x := tensor.New(r.Graph.NumLocal(), 16)
		e := tensor.New(r.Graph.NumEdges(), 16)
		step := func() {
			arena.Reset()
			nn.ZeroGrads(params)
			xo, eo := layer.Forward(r.Ctx, x, e)
			layer.Backward(xo, eo)
		}
		step()
		rep.SteadyStateAllocs["nmp_step"] = testing.AllocsPerRun(5, step)

		model, err := meshgnn.NewModel(meshgnn.SmallConfig())
		if err != nil {
			return err
		}
		trainer := meshgnn.NewTrainer(model, meshgnn.NewSGD(0.01))
		xs := r.Sample(meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0)
		trainer.Step(r.Ctx, xs, xs)
		trainer.Step(r.Ctx, xs, xs)
		rep.SteadyStateAllocs["train_step"] = testing.AllocsPerRun(5, func() {
			trainer.Step(r.Ctx, xs, xs)
		})

		// The row-block batched step holds the same contract: after the
		// recording pass the fused B-sample step is allocation-free.
		bxs := make([]*meshgnn.Matrix, 4)
		bts := make([]*meshgnn.Matrix, 4)
		for b := range bxs {
			bxs[b] = r.Sample(meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0.1*float64(b))
			bts[b] = r.Sample(meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0.1*float64(b)+0.05)
		}
		trainer.StepBatch(r.Ctx, bxs, bts)
		trainer.StepBatch(r.Ctx, bxs, bts)
		rep.SteadyStateAllocs["train_step_batched"] = testing.AllocsPerRun(5, func() {
			trainer.StepBatch(r.Ctx, bxs, bts)
		})

		eng, err := meshgnn.NewInference(model)
		if err != nil {
			return err
		}
		eng.Predict(r.Ctx, xs)
		eng.Predict(r.Ctx, xs)
		rep.SteadyStateAllocs["infer_step"] = testing.AllocsPerRun(5, func() {
			eng.Predict(r.Ctx, xs)
		})

		// The float32 serving twin holds the same contract: after the
		// first Predict binds the graph (staging, arena recording), the
		// steady state is allocation-free.
		cfg32 := meshgnn.SmallConfig()
		cfg32.Precision = meshgnn.Float32
		model32, err := meshgnn.NewModel(cfg32)
		if err != nil {
			return err
		}
		eng32, err := meshgnn.NewInference(model32)
		if err != nil {
			return err
		}
		eng32.Predict(r.Ctx, xs)
		eng32.Predict(r.Ctx, xs)
		rep.SteadyStateAllocs["infer_step_f32"] = testing.AllocsPerRun(5, func() {
			eng32.Predict(r.Ctx, xs)
		})
		return nil
	})
	if err != nil {
		fatal(err)
	}

	fmt.Println("bench: steady-state allocs/op:")
	for _, k := range []string{"mat_mul", "mlp_step", "nmp_step", "train_step", "train_step_batched", "infer_step", "infer_step_f32"} {
		fmt.Printf("  %-12s %v\n", k, rep.SteadyStateAllocs[k])
	}
}
