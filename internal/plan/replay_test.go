package plan

import (
	"strings"
	"testing"

	"orbit/internal/cluster"
)

// TestReplayLeak: a collective that one member posts but never waits
// must fail the replayed step, not linger in the pending table — also
// when one program stands for several members of the group.
func TestReplayLeak(t *testing.T) {
	// step replays one program per class of a single group, class i
	// standing for weights[i] members: each posts once at costs[i] and
	// waits unless skip[i].
	step := func(weights []int32, costs []float64, skip []bool, steps int) error {
		size := 0
		for _, n := range weights {
			size += int(n)
		}
		groups := []simGroup{newSimGroup(kindTP, 0, 1, size, 8, cluster.Frontier())}
		groups[0].pend = make([]simPending, 1)
		progs := make([][]instr, len(weights))
		for i, n := range weights {
			var b progBuilder
			b.join(&groups[0], n)
			seq := b.post(&groups[0], costs[i])
			if !skip[i] {
				b.wait(&groups[0], seq, phTP)
			}
			progs[i] = b.instrs
		}
		devs := make([]simDev, len(weights))
		for range steps {
			if err := replayStep(progs, devs, groups); err != nil {
				return err
			}
		}
		return nil
	}
	wantErr := func(err error, msg, what string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), msg) {
			t.Fatalf("%s: got %v, want %q", what, err, msg)
		}
	}
	// The balanced programs replay step after step: each step's table
	// is cleared for the next.
	if err := step([]int32{1, 1}, []float64{1e-6, 1e-6}, []bool{false, false}, 3); err != nil {
		t.Fatalf("balanced two-rank program: %v", err)
	}
	wantErr(step([]int32{1, 1}, []float64{1e-6, 1e-6}, []bool{false, true}, 1),
		"plan: replay leak", "rank 1 skipped its wait")

	// A 3-member group whose members 1 and 2 form one class (n = 2).
	if err := step([]int32{1, 2}, []float64{1e-6, 1e-6}, []bool{false, false}, 3); err != nil {
		t.Fatalf("balanced weighted program: %v", err)
	}
	wantErr(step([]int32{1, 2}, []float64{1e-6, 1e-6}, []bool{false, true}, 1),
		"plan: replay leak", "the two-member class skipped its wait")
	wantErr(step([]int32{1, 2}, []float64{1e-6, 2e-6}, []bool{false, false}, 1),
		"replay ordering violation", "the classes posted different costs at one sequence number")
}
