package plan

import (
	"fmt"

	"orbit/internal/cluster"
	"orbit/internal/core"
	"orbit/internal/pp"
)

// This file is the step-time predictor: it compiles the exact
// collective schedule the engines execute into per-rank programs and
// prices them on the replay machine (replay.go). The 3D predictor is
// the PP=1 case of the 4D one. Each rank's program is generated by
// walking its stage's 1F1B schedule slots exactly as pp.Engine.RunStep
// does — activation receives block at consumption, sends post
// asynchronously and drain at the end of the step, and a stale-cache
// backward re-runs the stage forward for real before charging the
// cheaper (2×) backward — so pipeline bubbles fall out of the replay
// rather than an analytic S·(M+S−1) formula: a stage idling in warmup
// simply accrues wait time on the first transfer it consumes, and that
// is what Prediction.PPWait reports. At PP=1 the schedule is
// forward/backward per micro-batch, which is core.Engine's step.

// rankCtx is everything one rank's program compilation needs. One
// context is reused across the ranks of a candidate; the scratch
// slices are sized for the largest stage.
type rankCtx struct {
	b                            progBuilder
	opts                         core.Options
	depth                        int // in-flight gather depth
	qkNorm                       bool
	tpG, fsdpG, ddpG             *simGroup
	fwdIn, fwdOut, bwdIn, bwdOut *simGroup // pipeline links; nil where the topology has none
	L                            int       // blocks in the rank's stage
	bufLive                      []bool
	gatherSeq, rsSeq             []int32
	sends                        []sendRef
	ddpCosts                     []float64 // one DDP all-reduce per bucket
	gatherBytes, actBytes        int64
	gatherCost, rsCost           float64
	arCost, qkCost               float64
	fwdSec                       float64
	// bwdFresh is the backward charge when the forward cache is fresh;
	// bwdRecomputed the 2× charge after the schedule performed a real
	// recompute forward.
	bwdFresh, bwdRecomputed float64
}

// sendRef is an asynchronous pipeline send awaiting its end-of-step
// drain.
type sendRef struct {
	g   *simGroup
	seq int32
}

func (rc *rankCtx) postGather(b int) {
	rc.b.alloc(rc.gatherBytes)
	rc.gatherSeq[b] = rc.b.post(rc.fsdpG, rc.gatherCost)
	rc.bufLive[b] = true
}

func (rc *rankCtx) release(b int) {
	rc.b.free(rc.gatherBytes)
	rc.bufLive[b] = false
}

// prefetchDepth derives the in-flight gather depth the options imply.
func prefetchDepth(opts core.Options) int {
	if !opts.Prefetch {
		return 0
	}
	if opts.PrefetchDepth > 1 {
		return opts.PrefetchDepth
	}
	return 1
}

// stageForward emits one Engine.Forward pass over the rank's stage
// blocks, mirroring core.Engine instruction for instruction (also as
// the real recompute the 1F1B schedule performs on stale-cache
// backwards).
func stageForward(rc *rankCtx) {
	bld, L := &rc.b, rc.L
	if !rc.opts.LayerWrapping {
		for b := 0; b < L; b++ {
			rc.postGather(b)
		}
		for b := 0; b < L; b++ {
			bld.wait(rc.fsdpG, rc.gatherSeq[b], phGather)
		}
	}
	for b := 0; b < L; b++ {
		if rc.opts.LayerWrapping {
			if !rc.bufLive[b] {
				rc.postGather(b)
			}
			for k := 1; k <= rc.depth && b+k < L; k++ {
				if !rc.bufLive[b+k] {
					rc.postGather(b + k)
				}
			}
			bld.wait(rc.fsdpG, rc.gatherSeq[b], phGather)
		}
		if !rc.opts.ActivationCheckpoint {
			bld.alloc(rc.actBytes)
		}
		bld.compute(rc.fwdSec)
		bld.sync(rc.tpG, rc.arCost, phTP) // attention partial sum
		bld.sync(rc.tpG, rc.arCost, phTP) // MLP partial sum
		if rc.opts.LayerWrapping {
			rc.release(b)
		}
	}
}

// stageBackward emits one Engine.Backward pass (per-block compute at
// bwdSec, TP reductions, the reduce-scatter drain, and the per-call
// outer DDP reduction) over the rank's stage blocks.
func stageBackward(rc *rankCtx, bwdSec float64) {
	bld, L := &rc.b, rc.L
	for b := L - 1; b >= 0; b-- {
		if rc.opts.LayerWrapping {
			if !rc.bufLive[b] {
				rc.postGather(b)
			}
			for k := 1; k <= rc.depth && b-k >= 0; k++ {
				if !rc.bufLive[b-k] {
					rc.postGather(b - k)
				}
			}
			bld.wait(rc.fsdpG, rc.gatherSeq[b], phGather)
		}
		if !rc.opts.ActivationCheckpoint {
			bld.free(rc.actBytes)
		}
		bld.compute(bwdSec)
		bld.sync(rc.tpG, rc.arCost, phTP) // MLP input-gradient sum
		if rc.qkNorm && rc.tpG.size > 1 {
			bld.sync(rc.tpG, rc.qkCost, phTP) // packed QK-norm grads
		}
		bld.sync(rc.tpG, rc.arCost, phTP) // attention input-gradient sum
		rc.rsSeq[b] = bld.post(rc.fsdpG, rc.rsCost)
		rc.release(b)
	}
	for b := 0; b < L; b++ {
		bld.wait(rc.fsdpG, rc.rsSeq[b], phRS)
	}
	// Outer DDP gradient reduction: the bucket posts are consecutive
	// on the DDP group, so their sequence numbers are too.
	if rc.ddpG.size > 1 {
		var first int32
		for i, c := range rc.ddpCosts {
			if s := bld.post(rc.ddpG, c); i == 0 {
				first = s
			}
		}
		for i := range rc.ddpCosts {
			bld.wait(rc.ddpG, first+int32(i), phDDP)
		}
	}
}

// compileStep emits one rank's optimizer step: its stage's schedule
// slots, mirroring pp.Engine.RunStep instruction for instruction.
// actFloats is the float32 count of one cross-stage message (the
// micro-batch activation shape).
func compileStep(rc *rankCtx, sched []pp.Op, actFloats int) {
	bld := &rc.b
	lastFwd := -1
	rc.sends = rc.sends[:0]
	for _, op := range sched {
		switch op.Kind {
		case pp.Fwd:
			if rc.fwdIn != nil {
				bld.sync(rc.fwdIn, rc.fwdIn.p2pCost(actFloats), phPP)
			}
			stageForward(rc)
			lastFwd = op.Micro
			if rc.fwdOut != nil {
				rc.sends = append(rc.sends, sendRef{rc.fwdOut, bld.post(rc.fwdOut, rc.fwdOut.p2pCost(actFloats))})
			}
		case pp.Bwd:
			bwdSec := rc.bwdFresh
			if lastFwd != op.Micro {
				// Later micro-batches clobbered the stage's caches: the
				// engine re-runs the forward for real (gathers, TP
				// reductions, compute all charged), then pays the 2×
				// backward.
				stageForward(rc)
				lastFwd = op.Micro
				bwdSec = rc.bwdRecomputed
			}
			if rc.bwdIn != nil {
				bld.sync(rc.bwdIn, rc.bwdIn.p2pCost(actFloats), phPP)
			}
			stageBackward(rc, bwdSec)
			if rc.bwdOut != nil {
				rc.sends = append(rc.sends, sendRef{rc.bwdOut, bld.post(rc.bwdOut, rc.bwdOut.p2pCost(actFloats))})
			}
		}
	}
	for _, s := range rc.sends {
		bld.wait(s.g, s.seq, phPP)
	}
}

// Predict prices one candidate: it replays two measured steps of the
// engine's schedule (after one warm-up step, so stream and clock
// offsets reach their steady state) and reports the per-step time,
// the per-phase breakdown of the critical rank, and both memory
// models. The returned prediction is self-contained and
// JSON-serializable — Plan.Explain renders it.
func Predict(w Workload, c ClusterShape, cand Candidate) Prediction {
	return predict(w, c, layout4(cand.Layout), cand.Options(w.Opts), nil)
}

// layout4 is the PP=1 4D layout of a 3D one.
func layout4(l core.Layout) pp.Layout {
	return pp.Layout{TP: l.TP, PP: 1, FSDP: l.FSDP, DDP: l.DDP}
}

// Predict4 prices one 4D candidate. PP=1 is exactly the 3D
// prediction — the unused axis changes nothing, matching the engine
// conformance guarantee.
func Predict4(w Workload, c ClusterShape, cand Candidate4) Prediction {
	if cand.Layout.PP <= 1 {
		return Predict(w, c, Candidate{Layout: cand.Layout.Inner(), Knobs: cand.Knobs})
	}
	return predict(w, c, cand.Layout, cand.Options(w.Opts), nil)
}

// predict compiles the step program of one representative rank per
// class of cls, once, under opts, and replays them (see replay). PP=1
// is the 3D case. cls must be the layout's rank classes on c (see
// newClasses); nil computes them.
func predict(w Workload, c ClusterShape, layout pp.Layout, opts core.Options, cls *classes) Prediction {
	if err := w.Validate(); err != nil {
		return infeasible(err.Error())
	}
	S := layout.PP
	if S > w.Layers {
		return infeasible(fmt.Sprintf("PP=%d stages exceed %d layers", S, w.Layers))
	}
	if S > 1 && (!opts.LayerWrapping || !opts.ActivationCheckpoint) {
		return infeasible("PP>1 requires LayerWrapping and ActivationCheckpoint")
	}
	R := layout.Ranks()
	if R > c.Devices() {
		return infeasible(fmt.Sprintf("layout needs %d devices, cluster has %d", R, c.Devices()))
	}
	inner := layout.Inner()
	micros, err := microBatches(w, inner)
	if err != nil {
		return infeasible(err.Error())
	}
	stages, err := pp.UniformPartition(w.Layers, S)
	if err != nil {
		return infeasible(err.Error())
	}
	scheds, err := pp.ScheduleFor(pp.Schedule1F1B, S, 1, micros)
	if err != nil {
		return infeasible(err.Error())
	}
	spec := c.Spec
	grid := newSimGrid(layout, c.GPUsPerNode, spec)
	if cls == nil {
		part := newClasses(layout, grid.groups)
		cls = &part
	}
	innerN := inner.Ranks()

	rate := spec.PeakFLOPS * spec.Efficiency
	fwdFLOPs := core.BlockFLOPs(w.Tokens, w.Dim, layout.TP)
	fwdSec := float64(fwdFLOPs) / rate
	// At PP=1 the backward is charged as one FLOP count, as core.Engine
	// charges it; the pipelined replay charges three forward charges.
	// The two round differently, and the replay golden pins both.
	bwdMult := int64(2)
	if opts.ActivationCheckpoint {
		bwdMult = 3
	}
	bwdFresh := float64(bwdMult*fwdFLOPs) / rate
	if S > 1 {
		bwdFresh = 3 * fwdSec
	}
	maxStage := 0
	for _, st := range stages {
		maxStage = max(maxStage, st[1]-st[0])
	}
	rc := rankCtx{
		opts:          opts,
		depth:         prefetchDepth(opts),
		qkNorm:        w.QKNorm,
		bufLive:       make([]bool, maxStage),
		gatherSeq:     make([]int32, maxStage),
		rsSeq:         make([]int32, maxStage),
		actBytes:      actBytesFor(w.Dim, w.Heads, layout.TP),
		fwdSec:        fwdSec,
		bwdFresh:      bwdFresh,
		bwdRecomputed: 2 * fwdSec,
	}
	actFloats := w.Tokens * w.Dim
	devs := make([]simDev, len(cls.reps))
	progs := make([][]instr, len(cls.reps))
	// join binds the compiled rank to its group g: instructions name
	// g's class by its lowest group and stand for every member of the
	// rank's class in g.
	var class int32
	join := func(g *simGroup) *simGroup {
		rep := &grid.groups[cls.group[g.id]]
		rc.b.join(rep, cls.members(g, class))
		return rep
	}
	// Representatives compile to programs of (nearly always) the
	// previous one's length, so each program is allocated once at that
	// size.
	size := 0
	for ci, rep := range cls.reps {
		class = int32(ci)
		r := int(rep)
		p, r3 := r/innerN, r%innerN
		c3 := inner.CoordOf(r3)
		L := stages[p][1] - stages[p][0]
		numel := blockShardNumel(w.Dim, w.Heads, layout.TP, c3.T, w.QKNorm)
		flat := flatLenFor(numel, layout.FSDP)
		chunkLen := flat / layout.FSDP
		rc.L = L
		rc.b.groups = rc.b.groups[:0]
		rc.tpG, rc.fsdpG, rc.ddpG = join(grid.tp(p, c3.D, c3.F)), join(grid.fsdp(p, c3.D, c3.T)), join(grid.ddp(p, c3.F, c3.T))
		rc.fwdIn, rc.bwdOut, rc.fwdOut, rc.bwdIn = nil, nil, nil, nil
		if p > 0 {
			rc.fwdIn, rc.bwdOut = join(grid.link(p-1, r3, 0)), join(grid.link(p-1, r3, 1))
		}
		if p+1 < S {
			rc.fwdOut, rc.bwdIn = join(grid.link(p, r3, 0)), join(grid.link(p, r3, 1))
		}
		rc.gatherBytes = int64(flat) * paramBytesFor(opts.MixedPrecision)
		rc.gatherCost = rc.fsdpG.allGatherCost(chunkLen)
		rc.rsCost = rc.fsdpG.reduceScatterCost(flat)
		rc.arCost = rc.tpG.allReduceCost(w.Tokens * w.Dim)
		rc.qkCost = rc.tpG.allReduceCost(4 * (w.Dim / w.Heads))
		rc.ddpCosts = rc.ddpCosts[:0]
		if rc.ddpG.size > 1 {
			rc.ddpCosts = ddpBucketCosts(rc.ddpCosts, rc.ddpG, L, chunkLen, opts.DDPBucketBytes)
		}

		rc.b.instrs = make([]instr, 0, size)
		compileStep(&rc, scheds[p], actFloats)
		progs[ci] = rc.b.instrs
		size = len(progs[ci])
		for _, rg := range rc.b.groups {
			g := &grid.groups[rg.g]
			if g.perStep == 0 {
				g.perStep = rg.posts
			} else if g.perStep != rg.posts {
				return infeasible(fmt.Sprintf("plan: replay ordering violation: rank %d posts %d collectives per step on a group whose lowest rank posts %d",
					r, rg.posts, g.perStep))
			}
		}
		// NewEngine's persistent allocation: fp32 chunk weights+grads
		// for the stage's blocks.
		mem := int64(L) * int64(chunkLen) * 8
		devs[ci] = simDev{capacity: spec.MemPerGPU, mem: mem, peak: mem}
	}
	for i := range grid.groups {
		g := &grid.groups[i]
		g.pend = make([]simPending, g.perStep)
	}

	pred, err := replay(progs, devs, grid.groups)
	if err != nil {
		return infeasible(err.Error())
	}
	// Analytic breakdown for the heaviest stage (the largest block
	// count; per-block chunk sizes are stage-independent).
	w.Layers = maxStage
	pred.Memory = analyticMemory(w, inner, opts)
	return pred
}

// simGrid is a candidate's communicator table: per stage, the TP, FSDP
// and DDP groups over the stage's contiguous device window, exactly as
// core.BuildGroups and pp.Build lay them out; then one two-rank link
// per (adjacent-stage pair, inner rank, direction), as pp.Build wires
// them (no wrap link without interleaving). A group's id is its index.
type simGrid struct {
	groups                  []simGroup
	T, F, D, innerN, stride int // stride: groups per stage
	links                   int // index of the first link
}

func newSimGrid(l pp.Layout, gpn int, spec cluster.Spec) simGrid {
	T, F, D := l.TP, l.FSDP, l.DDP
	g := simGrid{T: T, F: F, D: D, innerN: T * F * D, stride: D*F + D*T + F*T}
	g.links = l.PP * g.stride
	g.groups = make([]simGroup, g.links+2*(l.PP-1)*g.innerN)
	for p := 0; p < l.PP; p++ {
		base := p * g.innerN
		for d := 0; d < D; d++ {
			for f := 0; f < F; f++ {
				*g.tp(p, d, f) = newSimGroup(kindTP, base+(d*F+f)*T, 1, T, gpn, spec)
			}
			for t := 0; t < T; t++ {
				*g.fsdp(p, d, t) = newSimGroup(kindFSDP, base+d*F*T+t, T, F, gpn, spec)
			}
		}
		for f := 0; f < F; f++ {
			for t := 0; t < T; t++ {
				*g.ddp(p, f, t) = newSimGroup(kindDDP, base+f*T+t, F*T, D, gpn, spec)
			}
		}
	}
	for s := 0; s+1 < l.PP; s++ {
		for r3 := 0; r3 < g.innerN; r3++ {
			*g.link(s, r3, 0) = newSimGroup(kindFwdLink, s*g.innerN+r3, g.innerN, 2, gpn, spec)
			*g.link(s, r3, 1) = newSimGroup(kindBwdLink, s*g.innerN+r3, g.innerN, 2, gpn, spec)
		}
	}
	for i := range g.groups {
		g.groups[i].id = int32(i)
	}
	return g
}

func (g *simGrid) tp(p, d, f int) *simGroup { return &g.groups[p*g.stride+d*g.F+f] }
func (g *simGrid) fsdp(p, d, t int) *simGroup {
	return &g.groups[p*g.stride+g.D*g.F+d*g.T+t]
}
func (g *simGrid) ddp(p, f, t int) *simGroup {
	return &g.groups[p*g.stride+g.D*g.F+g.D*g.T+f*g.T+t]
}
func (g *simGrid) link(s, r3, dir int) *simGroup {
	return &g.groups[g.links+2*(s*g.innerN+r3)+dir]
}

// ddpBucketCosts appends the cost of each outer DDP all-reduce one
// backward pass issues over the stage's L chunks: one per block, or one
// per gradient bucket under DDPBucketBytes.
func ddpBucketCosts(dst []float64, g *simGroup, L, chunkLen, bucketBytes int) []float64 {
	if bucketBytes <= 0 {
		for range L {
			dst = append(dst, g.allReduceCost(chunkLen))
		}
		return dst
	}
	lens := make([]int, L)
	for i := range lens {
		lens[i] = chunkLen
	}
	for _, r := range core.BucketRanges(lens, bucketBytes) {
		dst = append(dst, g.allReduceCost((r[1]-r[0])*chunkLen))
	}
	return dst
}
