// Package plan is the parallelism auto-planner: given a model
// configuration and a simulated cluster shape, it enumerates every
// valid Hybrid-STOP layout (TP, FSDP, DDP) together with its tuning
// knobs (FSDP prefetch depth, DDP gradient-bucket size, the implied
// micro-batch count), predicts each candidate's per-step time and
// per-device memory, and returns a ranked plan set with a
// machine-readable explanation of every prediction. It closes the
// loop the ORBIT paper closes by hand in Sec. IV: instead of the user
// picking the split between tensor, sharded-data, and data
// parallelism per run, the planner picks it from the model.
//
// # How predictions are made
//
// Step time comes from replaying the engine's exact communication
// schedule against the overlap-aware clock model of internal/comm:
// the predictor walks the same program core.Engine executes — gather
// posts (with prefetch depth), the TP activation all-reduces inside
// each block, the asynchronous gradient reduce-scatters that drain
// behind backward compute, and the outer DDP bucket all-reduces —
// charging each collective the identical α–β ring cost over the
// identical per-group link parameters (Infinity Fabric within a node,
// Slingshot across), serializing in-flight collectives on each
// group's single communication stream, and charging block compute
// with the same core.BlockFLOPs the functional engine charges to the
// simulated device clocks. Because predictor and simulator share both
// the cost formulas and the program structure, predictions track the
// functional simulation tightly; the calibration tests in this
// package pin the agreement across a layout grid (within 15%, in
// practice far closer) and require the planner's top choice to land
// within a few percent of the brute-force grid-sweep optimum.
//
// Only one rank per class is replayed. Ranks that share a stage,
// whether they hold TP coordinate 0, and the place of their groups in
// the group structure (kind, size, link class, and the classes of the
// other members) run the same program and see identical clocks: a
// collective completes at the latest poster's clock plus its group's
// stream backlog, and every group of one class sees the same post
// sequence. Colour refinement finds these classes (the coarsest
// equitable partition of ranks and groups), once per layout in
// Rank/Rank4, and each representative's posts and waits count for
// every member of its class, so a prediction is bit-identical to
// replaying every rank at a cost that grows with the number of
// classes, not of devices.
//
// Memory comes from two models. The simulated-accounting prediction
// (Prediction.DeviceBytes) replays the engine's exact Alloc/Free
// sequence — persistent fp32 chunk weights+gradients, gather staging
// (depth+1 layer buffers live under prefetch), activation residency
// under checkpointing — and must equal cluster.Device.MemPeak to the
// byte (pinned by test). The analytic breakdown (MemBreakdown)
// additionally itemizes what a real training process holds —
// parameters, gradients, AdamW moments, activations, gather staging —
// which is what a capacity decision on real hardware needs.
//
// # Key types
//
// Workload describes the transformer stack and global batch;
// ClusterShape the machine. Enumerate produces Candidates (layout +
// Knobs), Predict prices one, Rank prices and sorts all of them, and
// Best returns the winner. Simulate/Sweep run the real functional
// engines over the simulated cluster for ground truth — that is what
// `orbit-scaling -auto` compares the planner against, and what the
// elastic trainer consults (via Best with a FixTP constraint, since
// TP shards cannot reshard across a checkpoint reload) when it
// rebuilds after a node loss.
package plan

import (
	"encoding/json"
	"fmt"
	"sort"

	"orbit/internal/cluster"
	"orbit/internal/core"
)

// Workload is the functional training job being planned: the
// transformer stack the Hybrid-STOP engine shards, the fixed global
// batch the elastic trainer micro-batches over the data ranks, and
// the base execution options (layer wrapping, activation
// checkpointing, mixed precision); the per-candidate knobs override
// the options' prefetch and bucketing fields.
type Workload struct {
	Dim, Heads, Layers, Tokens int
	QKNorm                     bool
	// GlobalBatch is the layout-independent samples per step; layouts
	// whose FSDP·DDP does not divide it are rejected (the elastic
	// trainer's divisibility requirement).
	GlobalBatch int
	Opts        core.Options
	// ParamDtype / GradDtype price the persistent parameter and
	// gradient storage in the analytic memory breakdown. The zero value
	// is float32 — the training engine's master precision — so existing
	// plans are byte-identical. DtypeNone gradients mark a forward-only
	// workload: no gradient or optimizer-moment bytes are charged.
	ParamDtype Dtype
	GradDtype  Dtype
}

// Validate reports impossible workloads.
func (w Workload) Validate() error {
	if w.Dim <= 0 || w.Heads <= 0 || w.Layers <= 0 || w.Tokens <= 0 {
		return fmt.Errorf("plan: workload needs positive Dim/Heads/Layers/Tokens, got %+v", w)
	}
	if w.Dim%w.Heads != 0 {
		return fmt.Errorf("plan: dim %d not divisible by %d heads", w.Dim, w.Heads)
	}
	if w.GlobalBatch <= 0 {
		return fmt.Errorf("plan: workload needs a positive GlobalBatch")
	}
	return nil
}

// ClusterShape is the simulated machine a plan targets.
type ClusterShape struct {
	Nodes, GPUsPerNode int
	Spec               cluster.Spec
}

// Shape returns a Frontier-spec cluster of the given node count.
func Shape(nodes int) ClusterShape {
	spec := cluster.Frontier()
	return ClusterShape{Nodes: nodes, GPUsPerNode: spec.GPUsPerNode, Spec: spec}
}

// ScaledShape is Shape with per-device compute throughput scaled by
// `computeScale`, links untouched. The functional engines run
// toy-sized transformers (a production layer is ~10⁴× more FLOPs), so
// on a full-speed Frontier spec their compute is nanoseconds against
// microsecond link latencies and every layout degenerates to "use as
// few devices as possible". Scaling the device down restores the
// production compute-to-communication ratio, making layout tradeoffs
// — TP's activation reductions vs. FSDP's gathers vs. DDP's gradient
// rings — visible at functional scale. Planner and simulator share
// whatever spec the shape carries, so calibration is unaffected.
func ScaledShape(nodes int, computeScale float64) ClusterShape {
	c := Shape(nodes)
	if computeScale > 0 {
		c.Spec.PeakFLOPS *= computeScale
	}
	return c
}

// Devices returns the machine's total GPU count.
func (c ClusterShape) Devices() int { return c.Nodes * c.GPUsPerNode }

// Machine materializes the shape as a simulated cluster.
func (c ClusterShape) Machine() *cluster.Machine {
	return cluster.NewMachine(c.Spec, c.Nodes, c.GPUsPerNode)
}

// Knobs are the tuning parameters enumerated alongside each layout.
type Knobs struct {
	// PrefetchDepth is how many layer gathers stay in flight ahead of
	// compute (0 disables prefetch; maps onto core.Options.Prefetch /
	// PrefetchDepth).
	PrefetchDepth int `json:"prefetch_depth"`
	// DDPBucketBytes coalesces the outer gradient all-reduce into
	// buckets of this many bytes (0 = one collective per block chunk).
	DDPBucketBytes int `json:"ddp_bucket_bytes"`
	// MicroBatches is the per-data-rank micro-batch count implied by
	// the layout: GlobalBatch / (FSDP·DDP). Derived, not free — it is
	// reported so a plan is a complete run recipe.
	MicroBatches int `json:"micro_batches"`
}

// Candidate is one point of the planning space.
type Candidate struct {
	Layout core.Layout `json:"layout"`
	Knobs  Knobs       `json:"knobs"`
}

// Options applies the candidate's knobs to a base option set,
// producing exactly what the engine should run with.
func (c Candidate) Options(base core.Options) core.Options {
	o := base
	o.Prefetch = c.Knobs.PrefetchDepth > 0
	o.PrefetchDepth = c.Knobs.PrefetchDepth
	o.DDPBucketBytes = c.Knobs.DDPBucketBytes
	return o
}

// Constraints restricts the enumeration.
type Constraints struct {
	// FixTP pins the tensor-parallel extent (> 0). The elastic trainer
	// uses this on rebuild: TP shards partition individual weight
	// matrices, so a checkpoint cannot reshard across a TP change.
	FixTP int
	// FixPP pins the pipeline-stage count in the 4D enumeration
	// (> 0; ignored by the 3D Enumerate). PP is normally left free
	// even on rebuild — ckpt.ReshardPP regroups stage shards
	// losslessly, so a checkpoint survives any PP change.
	FixPP int
	// MaxRanks caps the device count a plan may occupy (0 = the whole
	// cluster).
	MaxRanks int
	// PrefetchDepths / BucketBytes are the knob grids (nil = defaults:
	// depths {0, 1, 2}, buckets {0, 1 MiB}).
	PrefetchDepths []int
	BucketBytes    []int
}

// DefaultPrefetchDepths and DefaultBucketBytes are the knob grids an
// unconstrained enumeration explores.
var (
	DefaultPrefetchDepths = []int{0, 1, 2}
	DefaultBucketBytes    = []int{0, 1 << 20}
)

// Enumerate lists every candidate satisfying the structural rules:
// TP divides the head count (the paper's architectural limit on
// tensor parallelism), the grid fits the device budget, and FSDP·DDP
// divides the global batch.
func Enumerate(w Workload, c ClusterShape, cons Constraints) ([]Candidate, error) {
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
	var tps []int
	for tp := 1; tp <= w.Heads && tp <= devs; tp++ {
		if w.Heads%tp != 0 {
			continue
		}
		if cons.FixTP > 0 && tp != cons.FixTP {
			continue
		}
		tps = append(tps, tp)
	}
	var out []Candidate
	for _, tp := range tps {
		for fsdp := 1; tp*fsdp <= devs; fsdp++ {
			for ddp := 1; tp*fsdp*ddp <= devs; ddp++ {
				if w.GlobalBatch%(fsdp*ddp) != 0 {
					continue
				}
				micro := w.GlobalBatch / (fsdp * ddp)
				for _, d := range depths {
					for _, bb := range buckets {
						if bb != 0 && ddp == 1 {
							continue // bucketing is a no-op without a DDP level
						}
						out = append(out, Candidate{
							Layout: core.Layout{TP: tp, FSDP: fsdp, DDP: ddp},
							Knobs:  Knobs{PrefetchDepth: d, DDPBucketBytes: bb, MicroBatches: micro},
						})
					}
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("plan: no valid layout for %d devices (FixTP=%d, global batch %d)",
			devs, cons.FixTP, w.GlobalBatch)
	}
	return out, nil
}

// microBatches derives the per-data-rank micro-batch count a layout
// implies — the elastic trainer's contract: the global batch is fixed
// and must divide evenly over the FSDP·DDP data ranks. Predict and
// Simulate both derive the count from the workload (never from the
// informational Knobs.MicroBatches field), so a hand-built candidate
// cannot make them disagree.
func microBatches(w Workload, layout core.Layout) (int, error) {
	dataRanks := layout.FSDP * layout.DDP
	if w.GlobalBatch%dataRanks != 0 {
		return 0, fmt.Errorf("plan: global batch %d not divisible by %d data ranks (FSDP %d × DDP %d)",
			w.GlobalBatch, dataRanks, layout.FSDP, layout.DDP)
	}
	return w.GlobalBatch / dataRanks, nil
}

// Plan is a priced candidate.
type Plan struct {
	Candidate
	Pred Prediction `json:"prediction"`
}

// Explain renders the plan and the full reasoning behind its
// prediction as indented JSON — the machine-readable justification a
// scheduler (or a human) can audit.
func (p Plan) Explain() string {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Sprintf("plan: %v", err)
	}
	return string(b)
}

// String is a compact human-readable summary.
func (p Plan) String() string {
	return fmt.Sprintf("TP=%d FSDP=%d DDP=%d prefetch=%d bucket=%dB micro=%d: step %.3gs, %.2f GiB/device",
		p.Layout.TP, p.Layout.FSDP, p.Layout.DDP,
		p.Knobs.PrefetchDepth, p.Knobs.DDPBucketBytes, p.Knobs.MicroBatches,
		p.Pred.StepTime, float64(p.Pred.DeviceBytes)/(1<<30))
}

// Rank prices every candidate and sorts by predicted step time;
// plans that would OOM the simulated device sort to the end. Ties
// break toward lower per-device memory, then fewer occupied ranks.
func Rank(w Workload, c ClusterShape, cons Constraints) ([]Plan, error) {
	cands, err := Enumerate(w, c, cons)
	if err != nil {
		return nil, err
	}
	plans := make([]Plan, len(cands))
	var cls classes
	for i, cand := range cands {
		l := layout4(cand.Layout)
		if i == 0 || cand.Layout != cands[i-1].Layout {
			cls = layoutClasses(l, c)
		}
		plans[i] = Plan{Candidate: cand, Pred: predict(w, c, l, cand.Options(w.Opts), &cls)}
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
		return plans[i].Layout.Ranks() < plans[j].Layout.Ranks()
	})
	return plans, nil
}

// Best returns the top-ranked feasible plan.
func Best(w Workload, c ClusterShape, cons Constraints) (Plan, error) {
	plans, err := Rank(w, c, cons)
	if err != nil {
		return Plan{}, err
	}
	if plans[0].Pred.OOM {
		return Plan{}, fmt.Errorf("plan: every layout exceeds the %d-byte device memory", c.Spec.MemPerGPU)
	}
	return plans[0], nil
}
