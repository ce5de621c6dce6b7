package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	orbit "orbit"
	"orbit/internal/core"
	"orbit/internal/plan"
)

// plan-64 fixed inputs (mirrored in baseline.json): train-4d's model
// shape on 8 scaled nodes.
const (
	planNodes        = 8
	planScale        = 1e-3
	planMinCalls     = 3
	planSetupBatches = 50
	planSetupBatch   = 1000
	// planGlobalBatch is chosen so one call takes about two seconds.
	planGlobalBatch = 32
	baselineFile    = "baseline.json"
)

func planInputs() (plan.Workload, plan.ClusterShape, plan.Constraints) {
	w := plan.Workload{
		Dim: trainDim, Heads: trainHeads, Layers: trainLayers, Tokens: trainTokens,
		GlobalBatch: planGlobalBatch, Opts: core.DefaultOptions(),
	}
	return w, orbit.ScaledPlanShape(planNodes, planScale), plan.Constraints{}
}

// expectedPlan is the plan-64 answer recorded in baseline.json.
type expectedPlan struct {
	Layout   string  `json:"layout"`
	Knobs    string  `json:"knobs"`
	StepTime float64 `json:"step_time_s"`
}

func planKnobs(p plan.Plan4) string {
	return fmt.Sprintf("prefetch=%d bucket=%d micro=%d", p.Knobs.PrefetchDepth, p.Knobs.DDPBucketBytes, p.Knobs.MicroBatches)
}

func runPlan64(cfg runConfig) (*result, error) {
	res := &result{Contract: map[string]string{
		"latency_ms_p50":   "plan_cpu_ms_p50",
		"latency_ms_tail":  "plan_ms_max",
		"throughput_per_s": "candidates_per_s",
	}}
	// Set-up and calls are timed on the CPU clock of this goroutine's
	// thread as well as the wall clock (threadCPU).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// Set-up is building the planner's inputs. It takes about a tenth
	// of a microsecond, less than the clock resolves steadily, so
	// set-ups are timed in batches and the median batch mean kept.
	setups := make([]float64, planSetupBatches)
	sink := 0
	for i := range setups {
		c0 := threadCPU()
		for range planSetupBatch {
			w, c, _ := planInputs()
			sink += w.GlobalBatch + c.Nodes
		}
		setups[i] = (threadCPU() - c0).Seconds() / planSetupBatch
	}
	if sink != planSetupBatches*planSetupBatch*(planGlobalBatch+planNodes) {
		return nil, fmt.Errorf("plan-64: set-up built unexpected inputs")
	}
	var calls, cpu, rss []float64
	var best plan.Plan4
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; len(calls) < planMinCalls || time.Now().Before(deadline); i++ {
		w, c, cons := planInputs()
		// Every call starts from a collected heap, as testing.B does,
		// so no call pays for garbage an earlier one left.
		runtime.GC()
		sp := cfg.tr.start("plan", "best", noSpan, int64(i))
		t0, c0 := time.Now(), threadCPU()
		p, err := orbit.BestPlan4(w, c, cons)
		t1, c1 := time.Now(), threadCPU()
		cfg.tr.end(sp)
		calls = append(calls, ms(cfg.host.corrected(t0, t1)))
		cpu = append(cpu, ms(c1-c0))
		rss = append(rss, cfg.host.peakRSSMiB(t0, t1))
		if err != nil {
			return nil, fmt.Errorf("plan-64: %w", err)
		}
		if i == 0 {
			best = p
		} else if p.Layout != best.Layout || p.Knobs != best.Knobs || p.Pred.StepTime != best.Pred.StepTime {
			res.check("plan-64 repeatable", false, "call %d chose %v, call 0 chose %v", i, p, best)
		}
	}
	cands, err := plan.Enumerate4(planInputs())
	if err != nil {
		return nil, err
	}
	res.Attempted = int64(len(calls))
	res.add("setup_s", median(setups), "s", "host")
	res.Metrics[len(res.Metrics)-1].Note = "CPU time of the calling thread"
	res.add("plan_ms_p50", median(calls), "ms", "host")
	res.add("plan_s", median(calls)/1000, "s", "host")
	res.add("plan_ms_max", maxOf(calls), "ms", "host")
	res.add("plan_cpu_ms_p50", median(cpu), "ms", "host")
	res.Metrics[len(res.Metrics)-1].Note = "CPU time of the calling thread over one call: the planner runs on one goroutine, so on a machine of its own this is the call's wall time without the concurrent GC workers"
	res.add("candidates_per_s", float64(len(cands))/(median(cpu)/1000), "1/s", "host")
	res.add("calls", float64(len(calls)), "count", "count")
	res.add("peak_rss_mib", median(rss), "MiB", "host")
	res.Metrics[len(res.Metrics)-1].Note = "median over calls of the resident set's sampled peak"
	res.add("plan_sim_step_ms", 1000*best.Pred.StepTime, "ms", "sim")

	// Correctness: the chosen plan and its predicted step time equal
	// the values recorded in baseline.json, exactly.
	want, err := loadExpectedPlan()
	if err != nil {
		return nil, err
	}
	got := expectedPlan{Layout: best.Layout.String(), Knobs: planKnobs(best), StepTime: best.Pred.StepTime}
	ok := got.Layout == want.Layout && got.Knobs == want.Knobs &&
		math.Float64bits(got.StepTime) == math.Float64bits(want.StepTime)
	res.check("plan-64 plan", ok, "chose %s %s step %.17g s; recorded %s %s step %.17g s",
		got.Layout, got.Knobs, got.StepTime, want.Layout, want.Knobs, want.StepTime)
	if !ok {
		res.Failed = res.Attempted
	}
	if cfg.trace {
		if err := tracePlan(cfg, res, best); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func loadExpectedPlan() (expectedPlan, error) {
	root, err := repoRoot()
	if err != nil {
		return expectedPlan{}, err
	}
	data, err := os.ReadFile(filepath.Join(root, "perfbench", baselineFile))
	if err != nil {
		return expectedPlan{}, fmt.Errorf("plan-64: read recorded plan: %w", err)
	}
	var b struct {
		Workloads map[string]struct {
			Expected expectedPlan `json:"expected"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return expectedPlan{}, fmt.Errorf("plan-64: parse %s: %w", baselineFile, err)
	}
	return b.Workloads["plan-64"].Expected, nil
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
