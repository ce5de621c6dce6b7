package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	orbit "orbit"
	"orbit/internal/cluster"
	"orbit/internal/core"
	"orbit/internal/pp"
	"orbit/internal/train"
)

// train-4d fixed inputs (mirrored in baseline.json).
const (
	trainNodes     = 2
	trainDim       = 64
	trainHeads     = 4
	trainLayers    = 4
	trainTokens    = 16
	trainBatch     = 16
	trainScale     = 1e-3
	trainCkptEvery = 10
	trainKeep      = 2
	trainRepSteps  = 40 // steps per guarded job; a run repeats jobs until --seconds
	trainDeadline  = 30 * time.Second
	trainMinJobs   = 3
	trainSetupJobs = 10
)

// trainLayout is TP2×PP2×FSDP2×DDP2: every axis larger than one.
var trainLayout = pp.Layout{TP: 2, PP: 2, FSDP: 2, DDP: 2}

func trainConfig(seed uint64, dir string, steps int) train.ElasticConfig {
	return train.ElasticConfig{
		Layout:       trainLayout.Inner(),
		PP:           trainLayout.PP,
		Nodes:        trainNodes,
		ComputeScale: trainScale,
		Dim:          trainDim, Heads: trainHeads, Layers: trainLayers, Tokens: trainTokens,
		GlobalBatch: trainBatch,
		LR:          1e-2, MinLR: 1e-3, WarmupSteps: 2,
		TotalSteps: steps,
		Seed:       seed, DataSeed: seed + 1,
		CkptDir: dir, CkptEvery: trainCkptEvery, Keep: trainKeep,
		Opts: core.DefaultOptions(),
	}
}

// trainJob is the observation of one guarded job.
type trainJob struct {
	called   time.Time     // RunGuarded call
	setup    time.Duration // RunGuarded call to the first heartbeat
	stepAt   []time.Time   // host time of every OnStep
	simSteps []float64     // simulated seconds between OnSteps
	losses   []float64
	machine  *cluster.Machine
	beats    [][]time.Time // per step, per rank: first heartbeat of the step
	// Heap allocations between the second and the last OnStep (traced
	// runs only).
	allocs, allocBytes uint64
	allocSteps         int
}

// runTrainJob runs one supervised job and records its step timeline.
func runTrainJob(cfg runConfig, dir string, jobID, steps int, parent spanID) (*trainJob, error) {
	job := &trainJob{}
	job.called = time.Now()
	var (
		mu        sync.Mutex
		called    = job.called
		first     bool
		lastStep  time.Time
		lastClock float64
		stepSpan  = noSpan
	)
	ec := trainConfig(cfg.seed, dir, steps)
	ranks := trainLayout.Ranks()
	ec.Hooks = &train.Hooks{
		OnBuild: func(m *cluster.Machine, _ pp.Layout) { job.machine = m },
		OnBeat: func(rank, step int) {
			now := time.Now()
			mu.Lock()
			if !first {
				first = true
				job.setup = now.Sub(called)
			}
			if cfg.trace {
				for len(job.beats) <= step {
					job.beats = append(job.beats, make([]time.Time, ranks))
				}
				if job.beats[step][rank].IsZero() {
					job.beats[step][rank] = now
				}
			}
			mu.Unlock()
		},
		OnStep: func(step int, loss, _ float64) error {
			now := time.Now()
			clock := job.machine.MaxClock()
			job.stepAt = append(job.stepAt, now)
			if !lastStep.IsZero() {
				job.simSteps = append(job.simSteps, clock-lastClock)
				cfg.tr.end(stepSpan)
			}
			if cfg.trace && (step == 1 || step == steps-1) {
				var st runtime.MemStats
				runtime.ReadMemStats(&st)
				job.allocs, job.allocBytes = st.Mallocs-job.allocs, st.TotalAlloc-job.allocBytes
				job.allocSteps = step - 1
			}
			stepSpan = cfg.tr.start("train", "step", parent, int64(jobID*trainRepSteps+step))
			lastStep, lastClock = now, clock
			return nil
		},
	}
	res, err := orbit.RunGuarded(orbit.GuardConfig{Elastic: ec, StepDeadline: trainDeadline, Seed: cfg.seed})
	cfg.tr.end(stepSpan)
	if err != nil {
		return nil, fmt.Errorf("train-4d: guarded job: %w", err)
	}
	if !first {
		return nil, fmt.Errorf("train-4d: job ran no step")
	}
	job.losses = res.Losses
	return job, nil
}

func runTrain4D(cfg runConfig) (*result, error) {
	res := &result{Contract: map[string]string{
		"latency_ms_p50":   "step_ms_p50",
		"latency_ms_tail":  "ckpt_step_ms_p50",
		"throughput_per_s": "samples_per_s",
	}}

	// Set-up-only jobs of one step each, before the timed phase, so the
	// set-up median rests on more samples than the timed jobs give.
	var jobs, setupJobs []*trainJob
	for i := range trainSetupJobs {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("setup-%d", i))
		job, err := runTrainJob(cfg, dir, -1-i, 1, noSpan)
		if err != nil {
			return nil, err
		}
		setupJobs = append(setupJobs, job)
	}

	// Timed phase: guarded jobs back to back until --seconds, at least
	// trainMinJobs.
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; len(jobs) < trainMinJobs || time.Now().Before(deadline); i++ {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("train-%d", i))
		sp := cfg.tr.start("guard", "job", noSpan, int64(i))
		job, err := runTrainJob(cfg, dir, i, trainRepSteps, sp)
		cfg.tr.end(sp)
		if err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
	}

	// Host durations corrected for steal (host.go). Interval k runs from
	// OnStep(k) to OnStep(k+1); the checkpoint saved after step k+1
	// completes falls into interval k when (k+1)%trainCkptEvery == 0.
	var setups, all, ckpt, sims []float64
	var wall float64
	for _, j := range setupJobs {
		setups = append(setups, cfg.host.corrected(j.called, j.called.Add(j.setup)).Seconds())
	}
	for _, j := range jobs {
		setups = append(setups, cfg.host.corrected(j.called, j.called.Add(j.setup)).Seconds())
		for k := range len(j.stepAt) - 1 {
			d := ms(cfg.host.corrected(j.stepAt[k], j.stepAt[k+1]))
			all = append(all, d)
			wall += d
			if (k+1)%trainCkptEvery == 0 {
				ckpt = append(ckpt, d)
			}
		}
		sims = append(sims, j.simSteps...)
	}
	res.Attempted = int64(len(jobs) * trainRepSteps)
	res.add("setup_s", median(setups), "s", "host")
	res.add("samples_per_s", float64(trainBatch*len(all))/(wall/1000), "1/s", "host")
	res.add("step_ms_p50", median(all), "ms", "host")
	res.add("ckpt_step_ms_p50", median(ckpt), "ms", "host")
	res.add("step_ms_p90", quantile(all, 0.90), "ms", "host")
	res.add("steps", float64(len(all)), "count", "count")
	var rss []float64
	for _, j := range jobs {
		rss = append(rss, cfg.host.peakRSSMiB(j.called, j.stepAt[len(j.stepAt)-1]))
	}
	res.add("peak_rss_mib", median(rss), "MiB", "host")
	res.Metrics[len(res.Metrics)-1].Note = "median over jobs of the resident set's sampled peak"
	res.add("sim_step_ms", 1000*median(sims), "ms", "sim")
	m := jobs[0].machine
	res.add("sim_mem_peak_mib", float64(m.MaxMemPeak())/(1<<20), "MiB", "sim")

	// Correctness, outside the timed phase: every job's losses are
	// bit-identical to an unsupervised reference run of the same seed.
	ref, err := train.RunElastic(trainConfig(cfg.seed, filepath.Join(cfg.workDir, "train-ref"), trainRepSteps), nil)
	if err != nil {
		return nil, fmt.Errorf("train-4d: reference run: %w", err)
	}
	bad := 0
	for _, j := range jobs {
		if !sameLosses(j.losses, ref.Losses) {
			bad++
		}
	}
	res.Failed = int64(bad * trainRepSteps)
	res.check("train-4d losses", bad == 0 && len(ref.Losses) == trainRepSteps,
		"%d of %d guarded jobs bit-identical to the unsupervised reference over %d steps (final loss %.6g)",
		len(jobs)-bad, len(jobs), trainRepSteps, last(ref.Losses))

	if cfg.trace {
		if err := traceTrain(cfg, res, jobs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func sameLosses(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return xs[len(xs)-1]
}
