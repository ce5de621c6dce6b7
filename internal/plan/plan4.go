package plan

import (
	"encoding/json"
	"fmt"
	"sort"

	"orbit/internal/core"
	"orbit/internal/pp"
)

// 4D planning: the 3D enumeration extended with the pipeline axis.
// PP=1 candidates delegate to the 3D predictor, so the 4D planner's
// search space is a strict superset of the 3D planner's and Best4
// never does worse than Best on the same cluster — it picks a PP>1
// layout only when the replayed 1F1B schedule (bubbles included)
// actually beats every 3D candidate, or when only pipelining fits the
// per-device memory.

// Candidate4 is one point of the 4D planning space.
type Candidate4 struct {
	Layout pp.Layout `json:"layout"`
	Knobs  Knobs     `json:"knobs"`
}

// Options applies the candidate's knobs to a base option set.
func (c Candidate4) Options(base core.Options) core.Options {
	return Candidate{Knobs: c.Knobs}.Options(base)
}

// Plan4 is a priced 4D candidate.
type Plan4 struct {
	Candidate4
	Pred Prediction `json:"prediction"`
}

// Explain renders the plan and its full prediction as indented JSON.
func (p Plan4) Explain() string {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Sprintf("plan: %v", err)
	}
	return string(b)
}

// String is a compact human-readable summary.
func (p Plan4) String() string {
	return fmt.Sprintf("TP=%d PP=%d FSDP=%d DDP=%d prefetch=%d bucket=%dB micro=%d: step %.3gs (pp wait %.3gs), %.2f GiB/device",
		p.Layout.TP, p.Layout.PP, p.Layout.FSDP, p.Layout.DDP,
		p.Knobs.PrefetchDepth, p.Knobs.DDPBucketBytes, p.Knobs.MicroBatches,
		p.Pred.StepTime, p.Pred.PPWait, float64(p.Pred.DeviceBytes)/(1<<30))
}

// Enumerate4 lists every 4D candidate satisfying the structural
// rules: TP divides the head count, PP ≤ Layers (a stage must own at
// least one block), the grid fits the device budget, and FSDP·DDP
// divides the global batch. PP>1 candidates appear only when the base
// options carry LayerWrapping and ActivationCheckpoint — the
// production configuration pipeline schedules require.
func Enumerate4(w Workload, c ClusterShape, cons Constraints) ([]Candidate4, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	devs := c.Devices()
	if cons.MaxRanks > 0 && cons.MaxRanks < devs {
		devs = cons.MaxRanks
	}
	if devs < 1 {
		return nil, fmt.Errorf("plan: cluster has no devices")
	}
	depths := cons.PrefetchDepths
	if depths == nil {
		depths = DefaultPrefetchDepths
	}
	buckets := cons.BucketBytes
	if buckets == nil {
		buckets = DefaultBucketBytes
	}
	pipeOK := w.Opts.LayerWrapping && w.Opts.ActivationCheckpoint
	var out []Candidate4
	for tp := 1; tp <= w.Heads && tp <= devs; tp++ {
		if w.Heads%tp != 0 {
			continue
		}
		if cons.FixTP > 0 && tp != cons.FixTP {
			continue
		}
		for p := 1; p <= w.Layers && tp*p <= devs; p++ {
			if cons.FixPP > 0 && p != cons.FixPP {
				continue
			}
			if p > 1 && !pipeOK {
				continue
			}
			for fsdp := 1; tp*p*fsdp <= devs; fsdp++ {
				for ddp := 1; tp*p*fsdp*ddp <= devs; ddp++ {
					if w.GlobalBatch%(fsdp*ddp) != 0 {
						continue
					}
					micro := w.GlobalBatch / (fsdp * ddp)
					for _, d := range depths {
						for _, bb := range buckets {
							if bb != 0 && ddp == 1 {
								continue // bucketing is a no-op without a DDP level
							}
							out = append(out, Candidate4{
								Layout: pp.Layout{TP: tp, PP: p, FSDP: fsdp, DDP: ddp},
								Knobs:  Knobs{PrefetchDepth: d, DDPBucketBytes: bb, MicroBatches: micro},
							})
						}
					}
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("plan: no valid 4D layout for %d devices (FixTP=%d, FixPP=%d, global batch %d)",
			devs, cons.FixTP, cons.FixPP, w.GlobalBatch)
	}
	return out, nil
}

// Rank4 prices every 4D candidate and sorts by predicted step time;
// plans that would OOM the simulated device sort to the end. Ties
// break toward lower per-device memory, fewer occupied ranks, then
// fewer stages (prefer the simpler composition when pipelining buys
// nothing).
func Rank4(w Workload, c ClusterShape, cons Constraints) ([]Plan4, error) {
	cands, err := Enumerate4(w, c, cons)
	if err != nil {
		return nil, err
	}
	plans := make([]Plan4, len(cands))
	var cls classes
	for i, cand := range cands {
		if i == 0 || cand.Layout != cands[i-1].Layout {
			cls = layoutClasses(cand.Layout, c)
		}
		plans[i] = Plan4{Candidate4: cand, Pred: predict(w, c, cand.Layout, cand.Options(w.Opts), &cls)}
	}
	sort.SliceStable(plans, func(i, j int) bool {
		pi, pj := plans[i].Pred, plans[j].Pred
		if pi.OOM != pj.OOM {
			return !pi.OOM
		}
		if pi.StepTime != pj.StepTime {
			return pi.StepTime < pj.StepTime
		}
		if pi.DeviceBytes != pj.DeviceBytes {
			return pi.DeviceBytes < pj.DeviceBytes
		}
		if plans[i].Layout.Ranks() != plans[j].Layout.Ranks() {
			return plans[i].Layout.Ranks() < plans[j].Layout.Ranks()
		}
		return plans[i].Layout.PP < plans[j].Layout.PP
	})
	return plans, nil
}

// Best4 returns the top-ranked feasible 4D plan.
func Best4(w Workload, c ClusterShape, cons Constraints) (Plan4, error) {
	plans, err := Rank4(w, c, cons)
	if err != nil {
		return Plan4{}, err
	}
	if plans[0].Pred.OOM {
		return Plan4{}, fmt.Errorf("plan: every 4D layout exceeds the %d-byte device memory", c.Spec.MemPerGPU)
	}
	return plans[0], nil
}
