package plan

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"orbit/internal/core"
)

// The replay golden pins every Rank4 prediction bit for bit. The
// calibration gates only bound the predictor against the simulator
// within 15%, so a change to the replay's clock arithmetic (or its
// order) would pass them; this file would not. To regenerate it, only
// for an intentional change to the cost model called out in the change
// that makes it, delete testdata/replay_golden.json and run the test
// once (outside -race): it writes the file and fails, asking for
// review.

const replayGoldenFile = "testdata/replay_golden.json"

type goldenShape struct {
	name string
	w    Workload
	c    ClusterShape
	cons Constraints
}

func replayGoldenShapes() []goldenShape {
	plan64, plan64Shape := plan64Inputs()
	// The memory-bound shape of TestMemoryBound4DBeats3D, with the
	// device capacity set between the best 3D and the PP=2 footprints.
	memBound := Workload{Dim: 32, Heads: 4, Layers: 4, Tokens: 16, QKNorm: true, GlobalBatch: 1, Opts: core.DefaultOptions()}
	memShape := ScaledShape(1, 1e-3)
	memShape.Spec.MemPerGPU = 93856
	// Group sizes of 3, 6 and 9, TP=3 groups straddling nodes, and an
	// uneven PP=2 split of 5 layers: rounding that power-of-two group
	// sizes would hide shows here.
	odd := Workload{Dim: 48, Heads: 6, Layers: 5, Tokens: 12, QKNorm: true, GlobalBatch: 36, Opts: core.DefaultOptions()}
	noWrap, noCkpt := testWorkload(), testWorkload()
	noWrap.Opts.LayerWrapping = false
	noCkpt.Opts.ActivationCheckpoint = false
	return []goldenShape{
		{"plan-64", plan64, plan64Shape, Constraints{}},
		{"qknorm-16", testWorkload(), ScaledShape(2, 1e-3), Constraints{}},
		{"memory-bound-pp", memBound, memShape, Constraints{}},
		{"odd-sizes-16", odd, ScaledShape(2, 1e-3), Constraints{}},
		{"no-layer-wrapping-8", noWrap, ScaledShape(1, 1e-3), Constraints{}},
		{"no-prefetch-8", testWorkload(), ScaledShape(1, 1e-3), Constraints{PrefetchDepths: []int{0}}},
		{"no-activation-checkpoint-8", noCkpt, ScaledShape(1, 1e-3), Constraints{}},
	}
}

// goldenLine renders one ranked plan: the candidate, every float field
// of its prediction as IEEE-754 bits, the simulated memory peak, and
// the OOM verdict with its note.
func goldenLine(p Plan4) string {
	l, k, pr := p.Layout, p.Knobs, p.Pred
	bits := func(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }
	return fmt.Sprintf("TP=%d PP=%d FSDP=%d DDP=%d prefetch=%d bucket=%d micro=%d | step=%s compute=%s gather=%s tp=%s rs=%s ddp=%s pp=%s | bytes=%d oom=%t note=%q",
		l.TP, l.PP, l.FSDP, l.DDP, k.PrefetchDepth, k.DDPBucketBytes, k.MicroBatches,
		bits(pr.StepTime), bits(pr.ComputeTime), bits(pr.GatherWait), bits(pr.TPWait),
		bits(pr.RSWait), bits(pr.DDPWait), bits(pr.PPWait),
		pr.DeviceBytes, pr.OOM, pr.Note)
}

// TestReplayGolden ranks every golden shape and compares each
// candidate's prediction, in rank order, against the recorded bits.
func TestReplayGolden(t *testing.T) {
	got := map[string][]string{}
	for _, s := range replayGoldenShapes() {
		if raceEnabled && s.name == "plan-64" {
			continue // the 822-candidate shape is minutes under -race
		}
		plans, err := Rank4(s.w, s.c, s.cons)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, p := range plans {
			got[s.name] = append(got[s.name], goldenLine(p))
		}
	}
	data, err := os.ReadFile(replayGoldenFile)
	if os.IsNotExist(err) && !raceEnabled {
		if data, err = json.MarshalIndent(got, "", "  "); err == nil {
			err = os.WriteFile(replayGoldenFile, append(data, '\n'), 0o644)
		}
		t.Fatalf("wrote %s (%v): review it, then rerun", replayGoldenFile, err)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, lines := range got {
		if len(lines) != len(want[name]) {
			t.Errorf("%s: %d ranked plans, golden has %d", name, len(lines), len(want[name]))
			continue
		}
		bad := 0
		for i := range lines {
			if lines[i] != want[name][i] {
				if bad++; bad <= 3 {
					t.Errorf("%s rank %d:\n got  %s\n want %s", name, i, lines[i], want[name][i])
				}
			}
		}
		if bad > 3 {
			t.Errorf("%s: %d ranked plans differ in all", name, bad)
		}
	}
}
