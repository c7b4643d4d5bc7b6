package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"meshgnn/internal/comm"
	"meshgnn/internal/field"
	"meshgnn/internal/gnn"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

// Every workload runs on two ranks with a slab partition, one compute
// thread per rank and no emulated link delay.
const (
	ranks      = 2
	mode       = comm.NeighborAllToAll
	learnRate  = 1e-3
	snapshotDT = 0.05 // target snapshot lead for training pairs
	refSteps   = 3    // training steps checked against the reference runs
	minSteps   = 100  // measured training steps at least, so p90 has 10 samples beyond it
	snapshots  = 16   // generated input snapshots per run
	// consistencyTol is the relative loss difference allowed between R
	// ranks and one rank, as in the repository's consistency tests: the
	// global loss is reduced in a different order, so the last bits differ.
	consistencyTol = 1e-12
	rolloutLen     = 10   // steps of every served Rollout
	warmupShare    = 0.05 // share of a serving run spent warming up, unmeasured
	// An untraced serving run measures closed-loop, in cycles spread over
	// the whole run: each cycle is a slice of sliceShare of --seconds with
	// one Predict outstanding (lat_p50_ms), then one with 2·maxBatch
	// requests outstanding (throughput_per_s). Each figure is the median
	// over the cycles, so a slow spell of the host that spoils a few
	// cycles does not move it. The open-loop ladder runs in the traced run.
	cycles     = 10
	sliceShare = 0.05
)

// spec is one workload. The serving ladder, the latency limit and the rung
// lengths are fixed here so that every run of every commit offers the
// same load. The ladder is spaced so that, on the host it was calibrated
// on (2 vCPU Xeon, AVX2, whose speed drifted by up to 40% under its
// neighbours' load), high sits inside the limit even when the host is
// slow. The rung above high still passes on some runs when the host is
// fast, so max_rate_rps, a rung's rate, jumps run to run; it is reported,
// and the gated throughput is measured closed-loop instead.
type spec struct {
	name   string
	cfg    gnn.Config
	elems  [3]int
	order  int
	kind   comm.TransportKind
	setups int // set-ups per run, more where one is short; setup_s is their median

	profileSteps int // traced and untraced training steps compared in the profile

	// Serving. ladder[0] is "low" (about a fifth of capacity, so that
	// latency stays close to service time), ladder[1] "high" (about half),
	// the rest rungs above high, the first of them past saturation.
	// share[i] is the part of --seconds rung i runs for.
	maxBatch    int
	rolloutFrac float64
	ladder      []float64
	share       []float64
	lim         limit
}

var specs = map[string]*spec{
	// Closed-loop data-parallel training: GEMMs and aggregation in the
	// gnn and tensor layers dominate; halo, allreduce and optimizer are
	// small and the serve layer is absent.
	"train": {
		name: "train", cfg: gnn.LargeConfig(), elems: [3]int{8, 4, 4}, order: 2, kind: comm.InProcess, setups: 5,
		profileSteps: 6,
		// The traced run also serves the trained model at two fixed rates.
		maxBatch: 8, ladder: []float64{4, 6}, share: []float64{0.3, 0.2}, lim: limit{0.90, 1000},
	},
	// Predicts of the large model on a small mesh: the forward engine and
	// its batched GEMMs dominate, with no backward, allreduce or optimizer.
	"serve-large": {
		name: "serve-large", cfg: gnn.LargeConfig(), elems: [3]int{4, 4, 2}, order: 2, kind: comm.Sockets, setups: 21,
		profileSteps: 12,
		maxBatch:     8, ladder: []float64{10, 25, 60, 120}, share: []float64{0.65, 0.15, 0.1, 0.1},
		lim: limit{0.90, 250},
	},
	// Predicts mixed with 10-step Rollouts of the small model on a
	// 16-node mesh: per-request compute is tiny, so halo latency on the
	// socket fabric and the server's admission and coalescing dominate.
	// It is not in BENCHMARK.json: its saturation throughput fell by 60%
	// in runs where the hypervisor took a quarter of the machine's CPU
	// time, so on a shared host it cannot hold a bound. Run it by hand.
	"serve-small": {
		name: "serve-small", cfg: gnn.SmallConfig(), elems: [3]int{4, 2, 2}, order: 1, kind: comm.Sockets, setups: 101,
		profileSteps: 100,
		maxBatch:     8, rolloutFrac: 0.05, ladder: []float64{400, 1200, 2900, 5800}, share: []float64{0.65, 0.15, 0.1, 0.1},
		lim: limit{0.99, 100},
	},
}

func init() {
	for _, sp := range specs {
		sp.cfg.Threads = 1
	}
}

// world is the partitioned mesh of one workload: the mesh, the partition
// and every rank's sub-graph.
type world struct {
	box    *mesh.Box
	locals []*graph.Local
}

// buildWorld runs the set-up layers (mesh, partition, graph build and
// validation) for nranks ranks, with a span around each call when rec is
// non-nil.
func buildWorld(sp *spec, nranks int, rec *recorder, parent int) (*world, error) {
	var w world
	var err error
	id := rec.start("mesh.build", parent, -1)
	w.box, err = mesh.NewBox(sp.elems[0], sp.elems[1], sp.elems[2], sp.order, [3]bool{true, true, true})
	rec.stop(id)
	if err != nil {
		return nil, err
	}
	id = rec.start("partition.build", parent, -1)
	part, err := partition.NewCartesian(w.box, nranks, partition.Slabs)
	rec.stop(id)
	if err != nil {
		return nil, err
	}
	id = rec.start("graph.build", parent, -1)
	w.locals, err = graph.BuildAll(w.box, part)
	rec.stop(id)
	if err != nil {
		return nil, err
	}
	id = rec.start("graph.validate", parent, -1)
	err = graph.ValidateAll(w.locals)
	rec.stop(id)
	return &w, err
}

// sameGraphs reports whether two builds gave every rank the same nodes in
// the same order, so inputs sampled on one are valid on the other.
func sameGraphs(a, b *world) bool {
	if len(a.locals) != len(b.locals) {
		return false
	}
	for r := range a.locals {
		if !slices.Equal(a.locals[r].GlobalIDs, b.locals[r].GlobalIDs) {
			return false
		}
	}
	return true
}

// inputs are the generated node-feature snapshots of one run:
// Taylor–Green states at times drawn from the seed. x[s][r] is snapshot s
// on rank r and y[s][r] the state snapshotDT later (the training target).
type inputs struct {
	x, y [][]*tensor.Matrix
}

func makeInputs(sp *spec, w *world, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	tg := field.TaylorGreen{V0: 1, L: 1, Nu: 0.01}
	in := &inputs{}
	for s := 0; s < snapshots; s++ {
		t := rng.Float64()
		xs := make([]*tensor.Matrix, len(w.locals))
		ys := make([]*tensor.Matrix, len(w.locals))
		for r, l := range w.locals {
			xs[r] = field.Sample(tg, l, t)
			ys[r] = field.Sample(tg, l, t+snapshotDT)
		}
		in.x = append(in.x, xs)
		in.y = append(in.y, ys)
	}
	return in
}

// stepOrder is the snapshot each of n training steps uses, drawn from
// the seed.
func stepOrder(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(snapshots)
	}
	return out
}

// runRanks runs fn on every rank of a fresh fabric of the workload's kind.
func runRanks(kind comm.TransportKind, n int, fn func(c *comm.Comm) error) error {
	switch kind {
	case comm.InProcess:
		return comm.Run(n, fn)
	case comm.Sockets:
		return comm.RunSockets(n, fn)
	}
	return fmt.Errorf("unsupported fabric %v", kind)
}

// refs are the reference answers the served results must equal bitwise:
// per snapshot and rank, Model.Forward of the freshly initialised model
// and its rollout, computed on the channel fabric.
type refs struct {
	predict [][]*tensor.Matrix   // [snap][rank]
	rollout [][][]*tensor.Matrix // [snap][rank][step]
}

func makeRefs(sp *spec, w *world, in *inputs) (*refs, error) {
	ref := &refs{predict: make([][]*tensor.Matrix, len(in.x)), rollout: make([][][]*tensor.Matrix, len(in.x))}
	for s := range in.x {
		ref.predict[s] = make([]*tensor.Matrix, len(w.locals))
		ref.rollout[s] = make([][]*tensor.Matrix, len(w.locals))
	}
	err := comm.Run(len(w.locals), func(c *comm.Comm) error {
		rc, err := gnn.NewRankContext(c, w.box, w.locals[c.Rank()], mode)
		if err != nil {
			return err
		}
		model, err := gnn.NewModel(sp.cfg)
		if err != nil {
			return err
		}
		for s := range in.x {
			ref.predict[s][c.Rank()] = model.Forward(rc, in.x[s][c.Rank()]).Clone()
			if sp.rolloutFrac > 0 {
				ref.rollout[s][c.Rank()] = gnn.Rollout(model, rc, in.x[s][c.Rank()], rolloutLen)
			}
		}
		return nil
	})
	return ref, err
}

// trainLosses runs plain Trainer.Step calls on nranks ranks over the given
// fabric, one per entry of order, and returns the losses: the references
// the measured run is checked against.
func trainLosses(sp *spec, nranks int, kind comm.TransportKind, seed int64, order []int) ([]float64, error) {
	w, err := buildWorld(sp, nranks, nil, -1)
	if err != nil {
		return nil, err
	}
	in := makeInputs(sp, w, seed)
	losses := make([]float64, len(order))
	err = runRanks(kind, nranks, func(c *comm.Comm) error {
		rc, err := gnn.NewRankContext(c, w.box, w.locals[c.Rank()], mode)
		if err != nil {
			return err
		}
		model, err := gnn.NewModel(sp.cfg)
		if err != nil {
			return err
		}
		tr := gnn.NewTrainer(model, newOpt())
		for k, s := range order {
			l := tr.Step(rc, in.x[s][c.Rank()], in.y[s][c.Rank()])
			if c.Rank() == 0 {
				losses[k] = l
			}
		}
		return nil
	})
	return losses, err
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
