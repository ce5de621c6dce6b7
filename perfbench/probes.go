package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	orbit "orbit"
	"orbit/internal/cluster"
	"orbit/internal/comm"
	"orbit/internal/core"
	"orbit/internal/infer"
	"orbit/internal/metrics"
	"orbit/internal/nn"
	"orbit/internal/optim"
	"orbit/internal/parallel"
	"orbit/internal/plan"
	"orbit/internal/pp"
	"orbit/internal/tensor"
)

// Layer probes: each times one layer's public function at the shapes
// the workloads use, from outside the layer, with a span around every
// batch of calls. Every traced run runs all of them, so each per-layer
// metric is measured on every workload's traced run.

const (
	probeBudget     = 250 * time.Millisecond // per probe
	probeBatch      = 10 * time.Millisecond  // calls are timed in batches of about this long
	probeMinBatches = 5
	commReps        = 50 // collectives per SPMD batch
)

type prober struct {
	tr   *tracer
	host *hostMeter
	seed uint64
	dir  string
}

// timeOp runs fn in batches for about budget and returns the median
// steal-corrected time per call (host.go).
func (p *prober) timeOp(layer, op string, budget time.Duration, fn func()) time.Duration {
	fn() // warm caches, pools and packed operands
	t0 := time.Now()
	fn()
	n := max(1, int(probeBatch/max(time.Since(t0), time.Nanosecond)))
	var per []float64
	end := time.Now().Add(budget)
	for len(per) < probeMinBatches || time.Now().Before(end) {
		sp := p.tr.start(layer, op, noSpan, -1)
		b0 := time.Now()
		for range n {
			fn()
		}
		b1 := time.Now()
		p.tr.end(sp)
		per = append(per, float64(p.host.corrected(b0, b1))/float64(n))
	}
	return time.Duration(median(per))
}

// spmd runs body on ranks goroutines and waits for all of them.
func spmd(ranks int, body func(rank int)) {
	var wg sync.WaitGroup
	wg.Add(ranks)
	for r := range ranks {
		go func() {
			defer wg.Done()
			body(r)
		}()
	}
	wg.Wait()
}

// allocsPer counts heap allocations per call of fn.
func allocsPer(calls int, fn func()) float64 {
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for range calls {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(calls)
}

// mmShape is one [m,k]·[k,n] product.
type mmShape struct{ m, k, n int }

func (s mmShape) flops() float64 { return 2 * float64(s.m) * float64(s.k) * float64(s.n) }

// serveFwdShapes are the serving plan's per-block matmuls at a full
// batch: serveMaxBatch samples of 32 tokens at the demo model's width
// 32 (QKV, attention output, MLP in and out).
var serveFwdShapes = []mmShape{{256, 32, 96}, {256, 32, 32}, {256, 32, 128}, {256, 128, 32}}

// trainShardShapes are train-4d's per-rank TP=2 shard matmuls for one
// micro-batch of 16 tokens at width 64.
var trainShardShapes = []mmShape{{16, 64, 96}, {16, 32, 64}, {16, 64, 128}, {16, 128, 64}}

// runProbes measures every per-layer probe metric into res.Layers.
func runProbes(cfg runConfig, res *result) error {
	p := &prober{tr: cfg.tr, host: cfg.host, seed: cfg.seed, dir: filepath.Join(cfg.workDir, "probes")}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	p.kernels(res)
	p.block(res)
	p.optimizer(res)
	p.collectives(res)
	if err := p.pipeline(res); err != nil {
		return err
	}
	if err := p.serving(res); err != nil {
		return err
	}
	p.planner(res)
	return nil
}

func (p *prober) kernels(res *result) {
	rng := tensor.NewRNG(p.seed)
	type fwd struct {
		x, dst *tensor.Tensor
		bt     []float32
		q      *tensor.Quantized
		n      int
	}
	var fs []fwd
	var flops float64
	for _, s := range serveFwdShapes {
		w := tensor.Randn(rng, 0.1, s.k, s.n)
		fs = append(fs, fwd{x: tensor.Randn(rng, 1, s.m, s.k), dst: tensor.New(s.m, s.n),
			bt: tensor.PackTransposedInto(make([]float32, s.k*s.n), w), q: tensor.QuantizeTensor(w, tensor.QuantQ4), n: s.n})
		flops += s.flops()
	}
	f32 := func() {
		for _, f := range fs {
			tensor.MatMulPackedBInto(f.dst, f.x, f.bt, f.n, nil)
		}
	}
	q4 := func() {
		for _, f := range fs {
			tensor.MatMulQuantInto(f.dst, f.x, f.q, nil)
		}
	}
	res.addLayer("tensor.matmul_fwd_gflops", flops/p.timeOp("tensor", "matmul_fwd", probeBudget, f32).Seconds()/1e9, "GFLOP/s", "host")
	res.addLayer("quant.matmul_gflops", flops/p.timeOp("quant", "matmul_q4_0", probeBudget, q4).Seconds()/1e9, "GFLOP/s", "host")

	type tr struct{ x, w, dy, y, dx, dw *tensor.Tensor }
	var ts []tr
	flops = 0
	for _, s := range trainShardShapes {
		ts = append(ts, tr{x: tensor.Randn(rng, 1, s.m, s.k), w: tensor.Randn(rng, 0.1, s.k, s.n),
			dy: tensor.Randn(rng, 1, s.m, s.n), y: tensor.New(s.m, s.n), dx: tensor.New(s.m, s.k), dw: tensor.New(s.k, s.n)})
		flops += 3 * s.flops()
	}
	train := func() {
		for _, t := range ts {
			tensor.MatMulInto(t.y, t.x, t.w)
			tensor.MatMulTransBInto(t.dx, t.dy, t.w)
			tensor.MatMulTransAInto(t.dw, t.x, t.dy)
		}
	}
	res.addLayer("tensor.matmul_train_gflops", flops/p.timeOp("tensor", "matmul_train", probeBudget, train).Seconds()/1e9, "GFLOP/s", "host")
	ops := float64(len(fs) + 3*len(ts))
	res.addLayer("tensor.allocs_per_op", (allocsPer(200, f32)+allocsPer(200, train))/ops, "count", "count")
}

// block times train-4d's per-rank block shard — a TP=2 shard of the
// block, with its activation all-reduces — on one micro-batch, both
// ranks of the TP group running together.
func (p *prober) block(res *result) {
	rng := tensor.NewRNG(p.seed)
	ref := nn.NewTransformerBlock("probe", trainDim, trainHeads, true, rng)
	m := cluster.NewMachine(scaledSpec(), 1, trainLayout.TP)
	g := comm.NewGroup(m.Devices)
	shards := make([]*parallel.TPBlock, trainLayout.TP)
	for r := range shards {
		shards[r] = parallel.NewTPBlock(r, g, ref)
	}
	x := tensor.Randn(rng, 1, trainTokens, trainDim)
	dy := tensor.Randn(rng, 1, trainTokens, trainDim)
	fwd := p.timeOp("nn", "block_fwd", probeBudget, func() {
		spmd(len(shards), func(r int) { shards[r].Forward(x) })
	})
	both := p.timeOp("nn", "block_fwd_bwd", probeBudget, func() {
		spmd(len(shards), func(r int) { shards[r].Forward(x); shards[r].Backward(dy) })
	})
	res.addLayer("nn.block_fwd_ms", ms(fwd), "ms", "host")
	res.addLayer("nn.block_bwd_ms", ms(both-fwd), "ms", "host")
}

// rankChunkLens is one train-4d rank's FSDP chunk per block of its
// stage: the TP×FSDP share of every block parameter.
func rankChunkLens() []int {
	b := nn.NewTransformerBlock("probe", trainDim, trainHeads, true, tensor.NewRNG(1))
	n := 0
	for _, prm := range b.Params() {
		n += prm.W.Len()
	}
	chunk := (n + trainLayout.TP*trainLayout.FSDP - 1) / (trainLayout.TP * trainLayout.FSDP)
	lens := make([]int, trainLayers/trainLayout.PP)
	for i := range lens {
		lens[i] = chunk
	}
	return lens
}

func (p *prober) optimizer(res *result) {
	rng := tensor.NewRNG(p.seed)
	var params []*nn.Param
	for i, n := range rankChunkLens() {
		prm := nn.NewParam(fmt.Sprintf("chunk%d", i), tensor.Randn(rng, 0.1, n))
		copy(prm.Grad.Data(), tensor.Randn(rng, 0.01, n).Data())
		params = append(params, prm)
	}
	opt := optim.NewAdamW(params, 0.01)
	res.addLayer("optim.adamw_ms", ms(p.timeOp("optim", "adamw_step", probeBudget, func() { opt.Step(1e-3) })), "ms", "host")
	// The training step applies every rank's optimizer concurrently.
	ranks := trainLayout.Ranks()
	opts := make([]*optim.AdamW, ranks)
	for r := range opts {
		ps := make([]*nn.Param, len(params))
		for i, prm := range params {
			ps[i] = nn.NewParam(prm.Name, tensor.Randn(rng, 0.1, prm.W.Len()))
			copy(ps[i].Grad.Data(), prm.Grad.Data())
		}
		opts[r] = optim.NewAdamW(ps, 0.01)
	}
	res.addLayer("optim.phase_ms", ms(p.timeOp("optim", "adamw_phase", probeBudget, func() {
		spmd(ranks, func(r int) { opts[r].Step(1e-3) })
	})), "ms", "host")
}

// collectives times the engine's collectives on a two-rank intra-node
// group — every train-4d group has two ranks — at its message sizes:
// an FSDP block chunk gathered and reduce-scattered, a TP activation
// all-reduced, and a pipeline activation sent to the next stage.
func (p *prober) collectives(res *result) {
	m := cluster.NewMachine(scaledSpec(), 1, 2)
	chunk := rankChunkLens()[0]
	act := trainTokens * trainDim
	run := func(name string, body func(g *comm.Group, rank int)) time.Duration {
		g := comm.NewGroup(m.Devices)
		per := p.timeOp("comm", name, probeBudget, func() {
			spmd(2, func(rank int) {
				for range commReps {
					body(g, rank)
				}
			})
		})
		return per / commReps
	}
	shard, full := make([][]float32, 2), make([][]float32, 2)
	for r := range 2 {
		shard[r], full[r] = make([]float32, chunk), make([]float32, 2*chunk)
	}
	res.addLayer("comm.allgather_us", us(run("allgather", func(g *comm.Group, r int) {
		g.AllGatherInto(r, shard[r], full[r])
	})), "us", "host")
	res.addLayer("comm.reducescatter_us", us(run("reducescatter", func(g *comm.Group, r int) {
		g.ReduceScatterSumInto(r, full[r], shard[r])
	})), "us", "host")
	acts := [][]float32{make([]float32, act), make([]float32, act)}
	res.addLayer("comm.allreduce_us", us(run("allreduce", func(g *comm.Group, r int) {
		g.AllReduceSumInto(r, acts[r], acts[r])
	})), "us", "host")
	res.addLayer("comm.sendrecv_us", us(run("sendrecv", func(g *comm.Group, r int) {
		if r == 0 {
			g.SendTo(r, acts[r])
		} else {
			g.RecvFrom(r, acts[r])
		}
	})), "us", "host")
}

// scaledSpec is the simulated device train-4d runs on.
func scaledSpec() cluster.Spec {
	s := cluster.Frontier()
	s.PeakFLOPS *= trainScale
	return s
}

// pipeline times one pp step of the train-4d layout: Build once, then
// RunStep 1F1B on all 16 ranks — no optimizer, supervisor or
// checkpoint.
func (p *prober) pipeline(res *result) error {
	rng := tensor.NewRNG(p.seed)
	ref := make([]*nn.TransformerBlock, trainLayers)
	for i := range ref {
		ref[i] = nn.NewTransformerBlock(fmt.Sprintf("probe%d", i), trainDim, trainHeads, true, rng)
	}
	stages, err := pp.UniformPartition(trainLayers, trainLayout.PP)
	if err != nil {
		return err
	}
	m := cluster.NewMachine(scaledSpec(), trainNodes, 0)
	sp := p.tr.start("pp", "build", noSpan, -1)
	engines, err := pp.Build(trainLayout, 1, stages, m, ref, core.DefaultOptions())
	p.tr.end(sp)
	if err != nil {
		return fmt.Errorf("pp probe: %w", err)
	}
	micros := trainBatch / (trainLayout.FSDP * trainLayout.DDP)
	xs := make([]*tensor.Tensor, micros)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, trainTokens, trainDim)
	}
	var firstErr error
	var mu sync.Mutex
	step := func() {
		spmd(len(engines), func(rank int) {
			_, err := engines[rank].RunStep(pp.Schedule1F1B, micros, pp.StepIO{
				Shape: []int{trainTokens, trainDim},
				Input: func(mu int) *tensor.Tensor { return xs[mu] },
				LossGrad: func(_ int, y *tensor.Tensor) (float64, *tensor.Tensor) {
					return tensor.Dot(y, y) / float64(y.Len()), tensor.Scale(y, 2/float32(y.Len()))
				},
			})
			if err != nil {
				mu.Lock()
				firstErr = err
				mu.Unlock()
			}
		})
	}
	d := p.timeOp("pp", "step_1f1b", 4*probeBudget, step)
	if firstErr != nil {
		return fmt.Errorf("pp probe: %w", firstErr)
	}
	res.addLayer("pp.step_ms", ms(d), "ms", "host")
	return nil
}

// serving probes the checkpoint, climate, metrics and infer layers on
// the serve workloads' model and data.
func (p *prober) serving(res *result) error {
	f32Path := filepath.Join(p.dir, "probe-f32.orbt")
	q4Path := filepath.Join(p.dir, "probe-q4_0.orbt")
	cfg := orbit.TinyConfig(len(orbit.RegistrySmall()), serveHeight, serveWidth)
	cfg.OutChannels = len(serveChans)
	model, err := orbit.NewModel(cfg, p.seed)
	if err != nil {
		return err
	}
	var saveErr error
	save := p.timeOp("ckpt", "save_f32", probeBudget, func() {
		if err := orbit.SaveModel(f32Path, model, false); err != nil {
			saveErr = err
		}
	})
	if saveErr != nil {
		return saveErr
	}
	fi, err := os.Stat(f32Path)
	if err != nil {
		return err
	}
	res.addLayer("ckpt.save_ms", ms(save), "ms", "host")
	res.addLayer("ckpt.save_mib_per_s", float64(fi.Size())/(1<<20)/save.Seconds(), "MiB/s", "host")
	if err := orbit.SaveQuantizedCheckpoint(q4Path, model, orbit.QuantQ4); err != nil {
		return err
	}
	var loadErr error
	load := p.timeOp("ckpt", "load_f32", probeBudget, func() {
		if _, err := orbit.LoadInferenceModel(f32Path); err != nil {
			loadErr = err
		}
	})
	var qw map[string]*orbit.QuantizedWeight
	var qModel *orbit.Model
	loadQ := p.timeOp("ckpt", "load_q4_0", probeBudget, func() {
		var err error
		if qModel, qw, err = orbit.LoadQuantizedModel(q4Path); err != nil {
			loadErr = err
		}
	})
	if loadErr != nil {
		return loadErr
	}
	res.addLayer("ckpt.load_ms", ms(load), "ms", "host")
	res.addLayer("ckpt.load_q4_0_ms", ms(loadQ), "ms", "host")
	bytes := 0
	for _, q := range qw {
		bytes += q.Bytes()
	}
	res.addLayer("quant.weight_bytes", float64(bytes), "B", "count")

	ds := orbit.NewERA5Dataset(orbit.RegistrySmall(), serveHeight, serveWidth, serveEvalStart, serveEvalSteps, serveLead)
	ds.OutputChans = serveChans
	sc := orbit.NewScoreCache(ds, serveChans)
	next := serveStartWindow + 20*serveLead // past anything the batch probes touch
	res.addLayer("climate.field_ms", ms(p.timeOp("climate", "score_cache_miss", probeBudget, func() {
		sc.InputAt(next)
		sc.ClimAt(next)
		next++
	})), "ms", "host")

	pred := tensor.Randn(tensor.NewRNG(p.seed), 1, len(serveChans), serveHeight, serveWidth)
	truth, clim := sc.TruthAt(serveLead), sc.ClimAt(serveLead)
	res.addLayer("metrics.score_us", us(p.timeOp("metrics", "wrmse_wacc", probeBudget, func() {
		metrics.WeightedRMSE(pred, truth)
		metrics.WeightedACC(pred, truth, clim)
	})), "us", "host")

	engF, err := orbit.NewInferenceEngine(model, orbit.InferConfig{ResidualChans: serveChans, MaxBatch: serveMaxBatch})
	if err != nil {
		return err
	}
	engQ, err := orbit.NewInferenceEngine(qModel, orbit.InferConfig{ResidualChans: serveChans, MaxBatch: serveMaxBatch, Quant: qw})
	if err != nil {
		return err
	}
	n := serveMaxBatch
	h := expectedBatchHorizon(n)
	starts := make([]int, n)
	ics := make([]*tensor.Tensor, n)
	leads := make([]float64, n)
	for i := range starts {
		starts[i] = i * (serveStartWindow / n)
		ics[i] = sc.InputAt(starts[i])
		leads[i] = sc.LeadHours()
	}
	engF.ScoredRolloutBatch(sc, starts, h) // warm the truth the batch scores against
	for _, e := range []struct {
		suffix string
		eng    *infer.Engine
	}{{"", engF}, {"_q4_0", engQ}} {
		e.eng.Warmup()
		fwd := p.timeOp("infer", "rollout_batch"+e.suffix, probeBudget, func() {
			e.eng.RolloutBatch(ics, 1, leads, func(int, int, *tensor.Tensor) {})
		})
		scored := p.timeOp("infer", "scored_rollout_batch"+e.suffix, probeBudget, func() {
			e.eng.ScoredRolloutBatch(sc, starts, h)
		})
		// The scoring share: the same scored rollout with the scoring
		// done, and timed, in the step callback. A batch of at most
		// serveMaxBatch runs on one worker, so callbacks do not overlap.
		var scoring, wall time.Duration
		for range probeMinBatches {
			t0 := time.Now()
			e.eng.RolloutBatch(ics, h, leads, func(sample, step int, pred *tensor.Tensor) {
				s0 := time.Now()
				idx := starts[sample] + (step+1)*serveLead
				truth := sc.TruthAt(idx)
				metrics.WeightedRMSE(pred, truth)
				metrics.WeightedACC(pred, truth, sc.ClimAt(idx))
				scoring += time.Since(s0)
			})
			wall += time.Since(t0)
		}
		res.addLayer("infer.forward_us_per_sample"+e.suffix, us(fwd)/float64(n), "us", "host")
		res.addLayer("infer.batch_ms"+e.suffix, ms(scored), "ms", "host")
		res.addLayer("infer.score_pct"+e.suffix, 100*scoring.Seconds()/wall.Seconds(), "%", "host")
	}
	return nil
}

// planner times one Predict4 of the train-4d layout on plan-64's
// cluster.
func (p *prober) planner(res *result) {
	w, c, _ := planInputs()
	cand := plan.Candidate4{Layout: trainLayout}
	res.addLayer("plan.predict_ms", ms(p.timeOp("plan", "predict4", probeBudget, func() { plan.Predict4(w, c, cand) })), "ms", "host")
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
