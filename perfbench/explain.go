package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	orbit "orbit"
	"orbit/internal/core"
	"orbit/internal/plan"
	"orbit/internal/serve"
	"orbit/internal/train"
)

// contractPerLayer lists the per-layer metrics BENCHMARK.json names.
// Every traced run reports each of them: the layer probes run on every
// workload, and the trace.* metrics describe the workload's own traced
// phase. Workload-specific layer metrics (serve.*, train.*, cluster.*,
// the plan decomposition) are printed and recorded as well.
var contractPerLayer = []string{
	"tensor.matmul_fwd_gflops", "tensor.matmul_train_gflops", "tensor.allocs_per_op",
	"quant.matmul_gflops", "quant.weight_bytes",
	"nn.block_fwd_ms", "nn.block_bwd_ms",
	"optim.adamw_ms", "optim.phase_ms",
	"comm.allgather_us", "comm.reducescatter_us", "comm.allreduce_us", "comm.sendrecv_us",
	"pp.step_ms",
	"ckpt.save_ms", "ckpt.save_mib_per_s", "ckpt.load_ms", "ckpt.load_q4_0_ms",
	"climate.field_ms", "metrics.score_us",
	"infer.forward_us_per_sample", "infer.batch_ms", "infer.score_pct",
	"infer.forward_us_per_sample_q4_0", "infer.batch_ms_q4_0", "infer.score_pct_q4_0",
	"plan.predict_ms",
	"trace.overhead_pct", "trace.residual_pct", "trace.spans",
}

// probe returns a layer probe's value measured earlier in this run.
func (c runConfig) probe(name string) float64 {
	if m, ok := findMetric(c.probes, name); ok {
		return m.Value
	}
	return math.NaN()
}

// addResidual records the residual share of the workload's primary
// breakdown.
func addResidual(res *result, b breakdown) {
	res.addLayer("trace.residual_pct", 100*b.Residual/b.Value, "%", "host")
}

// traceTrain breaks train-4d's step down into the pp step (forward
// and backward of all ranks), the optimizer phase and checkpoint
// stalls; the rest is the training loop and its supervisor.
func traceTrain(cfg runConfig, res *result, jobs []*trainJob) error {
	spans := cfg.tr.snapshot()
	var stepMS []float64
	for _, s := range spans {
		if s.Layer == "train" && s.Op == "step" && s.T1 >= 0 {
			stepMS = append(stepMS, float64(s.T1-s.T0)/1e6)
		}
	}
	ppMS, optMS := cfg.probe("pp.step_ms"), cfg.probe("optim.phase_ms")
	trainStep := median(stepMS)
	res.addLayer("train.step_ms", trainStep, "ms", "host")
	res.addLayer("train.residual_ms", trainStep-ppMS-optMS, "ms", "host")

	var skews []float64
	var allocs, bytes float64
	steps := 0
	for _, j := range jobs {
		for _, beats := range j.beats {
			lo, hi := beats[0], beats[0]
			for _, b := range beats {
				if b.IsZero() {
					continue
				}
				if lo.IsZero() || b.Before(lo) {
					lo = b
				}
				if b.After(hi) {
					hi = b
				}
			}
			skews = append(skews, ms(hi.Sub(lo)))
		}
		allocs += float64(j.allocs)
		bytes += float64(j.allocBytes)
		steps += j.allocSteps
	}
	res.addLayer("train.rank_skew_ms", median(skews), "ms", "host")
	res.addLayer("train.allocs_per_step", allocs/float64(steps), "count", "count")
	res.addLayer("train.alloc_mib_per_step", bytes/float64(steps)/(1<<20), "MiB", "count")

	// Simulated clock and memory of the first job's machine.
	m := jobs[0].machine
	var crit, flops float64
	var critComm, critFlops float64
	for _, d := range m.Devices {
		flops += float64(d.FLOPs())
		if c := d.Clock(); c > crit {
			crit, critComm, critFlops = c, d.CommTime(), float64(d.FLOPs())
		}
	}
	rate := m.Spec.PeakFLOPS * m.Spec.Efficiency
	res.addLayer("cluster.sim_compute_pct", 100*critFlops/rate/crit, "%", "sim")
	res.addLayer("cluster.sim_comm_wait_pct", 100*critComm/crit, "%", "sim")
	res.addLayer("cluster.sim_tflops", flops/crit/1e12, "TFLOP/s", "sim")
	res.addLayer("cluster.sim_mem_peak_mib", float64(m.MaxMemPeak())/(1<<20), "MiB", "sim")
	w := plan.Workload{Dim: trainDim, Heads: trainHeads, Layers: trainLayers, Tokens: trainTokens,
		GlobalBatch: trainBatch, Opts: core.DefaultOptions()}
	pred := plan.Predict4(w, orbit.ScaledPlanShape(trainNodes, trainScale), plan.Candidate4{Layout: trainLayout})
	res.addLayer("pp.sim_bubble_pct", 100*pred.PPWait/pred.StepTime, "%", "sim")
	res.addLayer("core.sim_exposed_comm_pct", 100*(pred.GatherWait+pred.TPWait+pred.RSWait+pred.DDPWait)/pred.StepTime, "%", "sim")

	// Checkpoint stall: a checkpoint step against a plain one.
	p50, _ := res.metric("step_ms_p50")
	ck, _ := res.metric("ckpt_step_ms_p50")
	stall := ck.Value - p50.Value
	res.addLayer("ckpt.stall_ms", stall, "ms", "host")

	if err := guardOverhead(cfg, res); err != nil {
		return err
	}

	sps, _ := res.metric("samples_per_s")
	meanStep := trainBatch / sps.Value * 1000
	stallShare := stall / trainCkptEvery
	main := breakdown{Metric: "step_ms_p50", Value: p50.Value, Unit: "ms",
		Parts:    []part{{"pp", ppMS}, {"optim", optMS}},
		Residual: p50.Value - ppMS - optMS, Source: "layer probes at train-4d shapes; residual is train+guard"}
	res.Breakdown = append(res.Breakdown, main,
		breakdown{Metric: "ckpt_step_ms_p50", Value: ck.Value, Unit: "ms",
			Parts:    []part{{"pp", ppMS}, {"optim", optMS}, {"ckpt", stall}},
			Residual: ck.Value - ppMS - optMS - stall, Source: "layer probes; ckpt is the checkpoint step minus the median step"},
		breakdown{Metric: "samples_per_s (as ms per step)", Value: meanStep, Unit: "ms",
			Parts:    []part{{"pp", ppMS}, {"optim", optMS}, {"ckpt", stallShare}},
			Residual: meanStep - ppMS - optMS - stallShare, Source: "mean step at the checkpoint cadence"})
	addResidual(res, main)
	return nil
}

// guardOverhead times the same short job under guard.Run and under
// train.RunElastic, interleaved, and reports the supervision tax.
func guardOverhead(cfg runConfig, res *result) error {
	const reps, steps = 2, 20
	var bare, guarded []float64
	for i := range reps {
		ec := trainConfig(cfg.seed, fmt.Sprintf("%s/overhead-bare-%d", cfg.workDir, i), steps)
		t0 := time.Now()
		sp := cfg.tr.start("train", "run_elastic", noSpan, -1)
		_, err := train.RunElastic(ec, nil)
		cfg.tr.end(sp)
		if err != nil {
			return err
		}
		bare = append(bare, cfg.host.since(t0))
		ec = trainConfig(cfg.seed, fmt.Sprintf("%s/overhead-guard-%d", cfg.workDir, i), steps)
		t0 = time.Now()
		sp = cfg.tr.start("guard", "run", noSpan, -1)
		_, err = orbit.RunGuarded(orbit.GuardConfig{Elastic: ec, StepDeadline: trainDeadline, Seed: cfg.seed})
		cfg.tr.end(sp)
		if err != nil {
			return err
		}
		guarded = append(guarded, cfg.host.since(t0))
	}
	res.addLayer("guard.overhead_pct", 100*(median(guarded)-median(bare))/median(bare), "%", "host")
	return nil
}

// traceServe breaks serving latency down into generator lateness,
// time in the server's queue and batch window, the rollout forward
// and its scoring.
func traceServe(cfg runConfig, res *result, st *serveStack, format string, nom, ovl []serveOutcome, stats serve.Stats) error {
	coalesced := func(outs []serveOutcome) float64 {
		var sum, n float64
		for _, o := range outs {
			if o.err == nil {
				sum += float64(o.resp.Coalesced)
				n++
			}
		}
		return sum / n
	}
	bNom, bOvl := coalesced(nom), coalesced(ovl)
	res.addLayer("serve.batch_mean", bOvl, "count", "count")
	res.addLayer("serve.batch_mean_nominal", bNom, "count", "count")
	sent := float64(len(nom) + len(ovl))
	res.addLayer("serve.shed_ratio", float64(stats.ShedCapacity+stats.ShedPriority)/sent, "ratio", "count")
	res.addLayer("serve.expired_ratio", float64(stats.DroppedExpired)/sent, "ratio", "count")
	res.addLayer("serve.queue_depth_max", float64(stats.MaxQueueDepth), "count", "count")

	// The batch a nominal request rides: its observed mean size, rolled
	// out to the expected longest horizon among that many requests.
	n := max(1, int(math.Round(bNom)))
	h := expectedBatchHorizon(n)
	starts := make([]int, n)
	for i := range starts {
		starts[i] = i * (serveStartWindow / n)
	}
	p := &prober{tr: cfg.tr, host: cfg.host, seed: cfg.seed}
	batch := p.timeOp("infer", "scored_rollout_batch_observed", probeBudget, func() {
		st.eng.ScoredRolloutBatch(st.sc, starts, h)
	})
	batchMS := ms(batch)
	res.addLayer("infer.batch_ms_observed", batchMS, "ms", "host")

	var late, do []float64
	for _, o := range nom {
		if o.err == nil {
			sent, done := o.due.Add(o.late), o.due.Add(o.latency)
			late = append(late, ms(cfg.host.corrected(o.due, sent)))
			do = append(do, ms(cfg.host.corrected(sent, done)))
		}
	}
	wait := median(do) - batchMS
	res.addLayer("serve.wait_ms_p50", wait, "ms", "host")
	scorePct := cfg.probe("infer.score_pct")
	if format == "q4_0" {
		scorePct = cfg.probe("infer.score_pct_q4_0")
	}
	scoring := batchMS * scorePct / 100
	p50, _ := res.metric("latency_ms_p50")
	main := breakdown{Metric: "latency_ms_p50", Value: p50.Value, Unit: "ms",
		Parts:  []part{{"gen", median(late)}, {"serve", wait}, {"infer", batchMS - scoring}, {"metrics+climate", scoring}},
		Source: "medians over traced nominal requests; infer at the observed batch size and horizon"}
	main.Residual = main.Value - sumParts(main.Parts)
	res.Breakdown = append(res.Breakdown, main)
	tailName := res.Contract["latency_ms_tail"]
	if tail, ok := res.metric(tailName); ok {
		q := serveTailQuantile
		tb := breakdown{Metric: tailName, Value: tail.Value, Unit: "ms",
			Parts: []part{{"gen", quantile(late, q)}, {"serve", quantile(do, q) - batchMS},
				{"infer", batchMS - scoring}, {"metrics+climate", scoring}},
			Source: "same quantile of generator lateness and Do; infer as for the median"}
		tb.Residual = tb.Value - sumParts(tb.Parts)
		res.Breakdown = append(res.Breakdown, tb)
	}
	addResidual(res, main)
	return nil
}

func sumParts(ps []part) float64 {
	var s float64
	for _, p := range ps {
		s += p.Value
	}
	return s
}

// tracePlan decomposes one BestPlan4 call into enumeration, the
// Predict4 of every candidate (PP=1 and pipelined apart) and the rest
// (ranking).
func tracePlan(cfg runConfig, res *result, best plan.Plan4) error {
	w, c, cons := planInputs()
	root := cfg.tr.start("plan", "decompose", noSpan, -1)
	t0 := time.Now()
	sp := cfg.tr.start("plan", "enumerate", root, -1)
	cands, err := plan.Enumerate4(w, c, cons)
	cfg.tr.end(sp)
	if err != nil {
		return err
	}
	enum := ms(cfg.host.corrected(t0, time.Now()))
	var pp1, piped []float64
	feasible := 0
	for i, cand := range cands {
		sp := cfg.tr.start("plan", "predict", root, int64(i))
		t := time.Now()
		pred := plan.Predict4(w, c, cand)
		d := ms(cfg.host.corrected(t, time.Now()))
		cfg.tr.end(sp)
		if cand.Layout.PP == 1 {
			pp1 = append(pp1, d)
		} else {
			piped = append(piped, d)
		}
		if !pred.OOM {
			feasible++
		}
	}
	cfg.tr.end(root)
	res.addLayer("plan.enumerate_ms", enum, "ms", "host")
	res.addLayer("plan.candidates", float64(len(cands)), "count", "count")
	res.addLayer("plan.feasible_ratio", float64(feasible)/float64(len(cands)), "ratio", "count")
	res.addLayer("plan.predict_ms_pp1", mean(pp1), "ms", "host")
	res.addLayer("plan.predict_ms_pipelined", mean(piped), "ms", "host")
	// The whole call, timed right after its parts so host drift between
	// them stays small.
	t1 := time.Now()
	if _, err := plan.Best4(w, c, cons); err != nil {
		return err
	}
	call := ms(cfg.host.corrected(t1, time.Now()))
	predict1, predictP := sumOf(pp1), sumOf(piped)
	residual := call - enum - predict1 - predictP
	res.addLayer("plan.residual_ms", residual, "ms", "host")
	b := breakdown{Metric: "plan_ms_p50", Value: call, Unit: "ms",
		Parts:    []part{{"plan.enumerate", enum}, {"plan.predict_pp1", predict1}, {"plan.predict_pipelined", predictP}},
		Residual: residual, Source: "one BestPlan4 call against its parts timed one by one just before: Enumerate4, then Predict4 per candidate"}
	res.Breakdown = append(res.Breakdown, b)
	addResidual(res, b)
	return nil
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// spanLayers reports every layer's span count and self time over the
// whole run.
func spanLayers(res *result, spans []span) {
	per := selfTimes(spans)
	names := make([]string, 0, len(per))
	for l := range per {
		names = append(names, l)
	}
	sort.Strings(names)
	for _, l := range names {
		res.addLayer("self_ms."+l, ms(per[l]), "ms", "host")
	}
	res.addLayer("trace.spans", float64(len(spans)), "count", "count")
}
