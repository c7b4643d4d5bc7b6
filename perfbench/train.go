package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"meshgnn/internal/comm"
	"meshgnn/internal/gnn"
	"meshgnn/internal/nn"
)

func newOpt() nn.Optimizer { return nn.NewAdam(learnRate) }

// measureTrain is the untraced train workload: closed-loop data-parallel
// training with Trainer.Step at B=1. It sets up sp.setups times, each up
// to the first training step, checks the first refSteps losses against a
// 1-rank run (the paper's consistency claim, to the repository's
// tolerance) and bitwise against the same 2 ranks on the socket fabric,
// then trains for the run's seconds.
func measureTrain(sp *spec, seed int64, seconds float64) (*outcome, error) {
	out := newOutcome()
	probe, err := buildWorld(sp, ranks, nil, -1)
	if err != nil {
		return nil, err
	}
	in := makeInputs(sp, probe, seed)
	order := stepOrder(seed, 4096)
	one, err := trainLosses(sp, 1, comm.InProcess, seed, order[:refSteps])
	if err != nil {
		return nil, fmt.Errorf("1-rank reference: %w", err)
	}
	sock, err := trainLosses(sp, ranks, comm.Sockets, seed, order[:refSteps])
	if err != nil {
		return nil, fmt.Errorf("socket reference: %w", err)
	}
	check := func(k int, loss float64) {
		out.attempted++
		bad := math.IsNaN(loss) || math.IsInf(loss, 0)
		if k < refSteps {
			if rel := math.Abs(loss-one[k]) / (1 + math.Abs(one[k])); rel > consistencyTol {
				bad = true
				out.note("step %d loss %v on %d ranks, %v on 1 rank", k, loss, ranks, one[k])
			}
			if loss != sock[k] {
				bad = true
				out.note("step %d loss %v on the channel fabric, %v on sockets", k, loss, sock[k])
			}
		}
		if bad {
			out.failed++
		}
	}

	var setups, stepMs []float64
	var elapsed float64
	for rep := 0; rep < sp.setups; rep++ {
		last := rep == sp.setups-1
		// Each set-up starts from a collected heap, as in a fresh process,
		// not with the garbage of the set-ups before it.
		runtime.GC()
		t0 := time.Now()
		w, err := buildWorld(sp, ranks, nil, -1)
		if err != nil {
			return nil, err
		}
		if !sameGraphs(w, probe) {
			return nil, fmt.Errorf("graph build is not deterministic")
		}
		err = comm.Run(ranks, func(c *comm.Comm) error {
			r := c.Rank()
			rc, err := gnn.NewRankContext(c, w.box, w.locals[r], mode)
			if err != nil {
				return err
			}
			model, err := gnn.NewModel(sp.cfg)
			if err != nil {
				return err
			}
			tr := gnn.NewTrainer(model, newOpt())
			step := func(k int) float64 {
				s := order[k%len(order)]
				return tr.Step(rc, in.x[s][r], in.y[s][r])
			}
			loss := step(0)
			if r == 0 {
				setups = append(setups, since(t0))
				check(0, loss)
			}
			if !last {
				return nil
			}
			var warm []float64
			for k := 1; k < refSteps; k++ {
				t := time.Now()
				loss := step(k)
				if r == 0 {
					warm = append(warm, since(t))
					check(k, loss)
				}
			}
			// Rank 0 turns the time budget into a step count, agreed on by
			// one collective so every rank runs the same steps.
			n := []float64{0}
			if r == 0 {
				n[0] = math.Max(float64(minSteps), math.Ceil(seconds/median(warm)))
			}
			c.AllReduceMax(n)
			start := time.Now()
			for k := refSteps; k < refSteps+int(n[0]); k++ {
				t := time.Now()
				loss := step(k)
				if r == 0 {
					stepMs = append(stepMs, ms(time.Since(t)))
					check(k, loss)
				}
			}
			if r == 0 {
				elapsed = since(start)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	out.setMetric("setup_s", median(setups))
	out.setMetric("throughput_per_s", float64(len(stepMs))/elapsed)
	if err := out.setPct("lat_p50_ms", stepMs, 0.50); err != nil {
		return nil, err
	}
	out.reportPct("lat_p90_ms", stepMs, 0.90)
	out.report["setup_reps_s"] = setups
	out.report["train_step_ms"] = percentiles(newDist(stepMs))
	return out, nil
}
