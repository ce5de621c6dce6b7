package plan

import (
	"fmt"
	"math"
	"slices"

	"orbit/internal/cluster"
)

// This file is the replay machine under the step-time predictor: the
// identical cost semantics internal/comm charges to the simulated
// device clocks — per-group α–β ring costs over the group's link
// class, rendezvous at the latest poster's clock, serialization of
// in-flight collectives on each group's single communication stream,
// and wait-time attribution only for the gap local compute did not
// already cover. No data moves; only clocks.
//
// A candidate is compiled once and replayed three times. Every
// optimizer step issues the same instruction stream (no gather buffer
// is live across a step boundary, and every member posts the same
// number of collectives on each of its groups), so each rank's
// program covers one step with step-local sequence numbers, and each
// group holds a pending table with one slot per collective it carries
// in a step. After every replayed step each slot must have been
// posted and waited by all of the group's members; the table is then
// cleared for the next step.
//
// Only one representative rank per class of interchangeable ranks
// (symmetry.go) is compiled and replayed. Its posts and waits name
// its group's class by the class's lowest group and count for every
// member of its own class in that group, so a class's collectives
// complete exactly when all of a real group's members have posted.

// simPending mirrors comm.pending for one collective of the step. It
// is complete once every member has posted.
type simPending struct {
	cost, tmax, completion float64
	posted, waited         int32
}

// simGroup mirrors comm.Group: a communicator with one serialized
// stream and link parameters chosen by whether its members share a
// node (Infinity Fabric) or span nodes (Slingshot).
type simGroup struct {
	id            int32 // index in the candidate's group table
	kind          uint8
	size          int
	first, stride int // members are first, first+stride, …
	lat, bw       float64
	streamFree    float64
	// perStep is the number of collectives each member posts per step;
	// pend holds them by step-local sequence number.
	perStep int32
	pend    []simPending
}

// Group kinds.
const (
	kindTP = iota
	kindFSDP
	kindDDP
	kindFwdLink
	kindBwdLink
)

// newSimGroup prices a communicator over the n ranks first,
// first+stride, …: every group of the Hybrid-STOP grid, and every
// pipeline link, is such a progression.
func newSimGroup(kind uint8, first, stride, n, gpn int, spec cluster.Spec) simGroup {
	g := simGroup{kind: kind, size: n, first: first, stride: stride, lat: spec.IntraNodeLatency, bw: spec.IntraNodeBandwidth}
	if first/gpn != (first+(n-1)*stride)/gpn {
		g.lat, g.bw = spec.InterNodeLatency, spec.InterNodeBandwidth
	}
	return g
}

func (g *simGroup) member(k int) int { return g.first + k*g.stride }

// ring mirrors comm.Group.ringCost.
func (g *simGroup) ring(bytes int) float64 {
	if g.size == 1 {
		return 0
	}
	p := float64(g.size)
	return (p - 1) * (g.lat + float64(bytes)/p/g.bw)
}

func (g *simGroup) allGatherCost(shardLen int) float64 { return g.ring(4 * shardLen * g.size) }
func (g *simGroup) allReduceCost(n int) float64        { return 2 * g.ring(4*n) }
func (g *simGroup) reduceScatterCost(n int) float64    { return g.ring(4 * n) }

// p2pCost mirrors comm.Group.p2pCost: the store-and-forward price of
// one point-to-point message over the group's link class.
func (g *simGroup) p2pCost(n int) float64 { return g.lat + float64(4*n)/g.bw }

// Wait-phase attribution labels.
const (
	phGather = iota
	phTP
	phRS
	phDDP
	phPP
	phCount
)

// instr opcodes.
const (
	opPost = iota
	opWait
	opCompute
	opAlloc
	opFree
)

// instr is pointer-free, so compiled programs cost the garbage
// collector nothing to scan.
type instr struct {
	op, phase uint8
	seq       int32   // step-local sequence number on group g
	g         int32   // group id
	n         int32   // group members this post or wait stands for
	cost      float64 // collective cost (post) or seconds (compute)
	bytes     int64   // alloc/free
}

// progBuilder compiles one rank's step program. Posting sequence
// numbers count per group from zero, exactly like comm.Group's
// per-rank counters within one step.
type progBuilder struct {
	instrs []instr
	groups []rankGroup // the groups the rank joined
}

type rankGroup struct {
	g, n  int32 // group id, members the rank stands for
	posts int32 // posts so far
}

// join makes the rank a member of g standing for n of its members.
// Every group a rank posts or waits on must be joined first.
func (b *progBuilder) join(g *simGroup, n int32) {
	b.groups = append(b.groups, rankGroup{g: g.id, n: n})
}

func (b *progBuilder) joined(g *simGroup) *rankGroup {
	i := 0
	for b.groups[i].g != g.id {
		i++
	}
	return &b.groups[i]
}

func (b *progBuilder) post(g *simGroup, cost float64) int32 {
	rg := b.joined(g)
	s := rg.posts
	rg.posts++
	b.instrs = append(b.instrs, instr{op: opPost, g: g.id, n: rg.n, seq: s, cost: cost})
	return s
}

func (b *progBuilder) wait(g *simGroup, seq int32, phase uint8) {
	b.instrs = append(b.instrs, instr{op: opWait, g: g.id, n: b.joined(g).n, seq: seq, phase: phase})
}

// sync is a post immediately followed by its wait (the synchronous
// destination-passing collectives the TP block uses).
func (b *progBuilder) sync(g *simGroup, cost float64, phase uint8) {
	b.wait(g, b.post(g, cost), phase)
}

func (b *progBuilder) compute(sec float64) {
	b.instrs = append(b.instrs, instr{op: opCompute, cost: sec})
}

func (b *progBuilder) alloc(bytes int64) {
	b.instrs = append(b.instrs, instr{op: opAlloc, bytes: bytes})
}

func (b *progBuilder) free(bytes int64) {
	b.instrs = append(b.instrs, instr{op: opFree, bytes: bytes})
}

// simDev mirrors cluster.Device's clock and memory accounting.
type simDev struct {
	clock     float64
	mem, peak int64
	capacity  int64
	oom       bool
	compute   float64
	waits     [phCount]float64
}

// runPrograms executes one SPMD step of per-rank instruction lists
// against the shared groups, advancing clocks with comm's rendezvous
// and stream rules. Each program stands for a class of ranks, and each
// post or wait counts for the n members of the class in the group.
// Ranks advance until they block on a wait whose collective has not
// fully posted; the round-robin repeats until all programs retire.
func runPrograms(progs [][]instr, devs []simDev, groups []simGroup) error {
	ptr := make([]int, len(progs))
	for {
		progress := false
		for r := range progs {
			d := &devs[r]
			for ptr[r] < len(progs[r]) {
				in := &progs[r][ptr[r]]
				g := &groups[in.g]
				if in.op == opWait {
					p := &g.pend[in.seq]
					if int(p.posted) < g.size {
						break // rendezvous incomplete; try other ranks
					}
					if p.completion > d.clock {
						d.waits[in.phase] += p.completion - d.clock
						d.clock = p.completion
					}
					p.waited += in.n
				} else {
					switch in.op {
					case opPost:
						p := &g.pend[in.seq]
						if p.posted == 0 {
							p.cost = in.cost
						} else if p.cost != in.cost {
							return fmt.Errorf("plan: replay ordering violation: cost %v posted against %v at seq %d",
								in.cost, p.cost, in.seq)
						}
						if d.clock > p.tmax {
							p.tmax = d.clock
						}
						p.posted += in.n
						if int(p.posted) == g.size {
							start := p.tmax
							if g.streamFree > start {
								start = g.streamFree
							}
							p.completion = start + p.cost
							g.streamFree = p.completion
						}
					case opCompute:
						d.clock += in.cost
						d.compute += in.cost
					case opAlloc:
						d.mem += in.bytes
						if d.mem > d.peak {
							d.peak = d.mem
						}
						if d.mem > d.capacity {
							d.oom = true
						}
					case opFree:
						d.mem -= in.bytes
					}
				}
				ptr[r]++
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	for r := range progs {
		if ptr[r] != len(progs[r]) {
			return fmt.Errorf("plan: replay deadlock: program %d stuck at instruction %d/%d", r, ptr[r], len(progs[r]))
		}
	}
	return nil
}

// replayStep runs one step of the compiled programs, then checks that
// every collective of the step was posted and waited by all of its
// group's members, and clears the pending tables for the next step.
func replayStep(progs [][]instr, devs []simDev, groups []simGroup) error {
	if err := runPrograms(progs, devs, groups); err != nil {
		return err
	}
	for i := range groups {
		g := &groups[i]
		for s, p := range g.pend {
			if int(p.posted) != g.size || int(p.waited) != g.size {
				return fmt.Errorf("plan: replay leak: collective %d of a %d-member group posted %d and waited %d times in one step",
					s, g.size, p.posted, p.waited)
			}
		}
		clear(g.pend)
	}
	return nil
}

// replay prices compiled programs: one warm-up step, so stream and
// clock offsets reach their steady state, then two measured steps. It
// reports the per-step time, the per-phase breakdown of the critical
// (latest-clock) rank, and the simulated memory peak. devs are the
// class representatives in rank order, so the critical one is the
// lowest rank with the latest clock, as over all ranks.
func replay(progs [][]instr, devs []simDev, groups []simGroup) (Prediction, error) {
	const measured = 2
	if err := replayStep(progs, devs, groups); err != nil {
		return Prediction{}, err
	}
	warm := slices.Clone(devs)
	for range measured {
		if err := replayStep(progs, devs, groups); err != nil {
			return Prediction{}, err
		}
	}
	crit, warmMax := 0, 0.0
	for r := range devs {
		if devs[r].clock > devs[crit].clock {
			crit = r
		}
		warmMax = max(warmMax, warm[r].clock)
	}
	cd, wd := &devs[crit], &warm[crit]
	pred := Prediction{
		StepTime:    (cd.clock - warmMax) / measured,
		ComputeTime: (cd.compute - wd.compute) / measured,
		GatherWait:  (cd.waits[phGather] - wd.waits[phGather]) / measured,
		TPWait:      (cd.waits[phTP] - wd.waits[phTP]) / measured,
		RSWait:      (cd.waits[phRS] - wd.waits[phRS]) / measured,
		DDPWait:     (cd.waits[phDDP] - wd.waits[phDDP]) / measured,
		PPWait:      (cd.waits[phPP] - wd.waits[phPP]) / measured,
	}
	for i := range devs {
		pred.DeviceBytes = max(pred.DeviceBytes, devs[i].peak)
		pred.OOM = pred.OOM || devs[i].oom
	}
	if pred.OOM {
		pred.Note = "predicted device memory exceeds capacity"
	}
	return pred, nil
}

// infeasible is the prediction of a candidate that cannot run.
func infeasible(note string) Prediction {
	return Prediction{Note: note, OOM: true, StepTime: math.Inf(1)}
}
