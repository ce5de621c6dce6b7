package plan

import (
	"strings"
	"testing"

	"orbit/internal/cluster"
)

// TestReplayLeak: a collective that one member posts but never waits
// must fail the replayed step, not linger in the pending table.
func TestReplayLeak(t *testing.T) {
	step := func(skipWait bool, steps int) error {
		groups := []simGroup{newSimGroup(0, 1, 2, 8, cluster.Frontier())}
		groups[0].pend = make([]simPending, 1)
		var r0, r1 progBuilder
		r0.sync(&groups[0], 1e-6, phTP)
		seq := r1.post(&groups[0], 1e-6)
		if !skipWait {
			r1.wait(&groups[0], seq, phTP)
		}
		progs := [][]instr{r0.instrs, r1.instrs}
		devs := make([]simDev, 2)
		for range steps {
			if err := replayStep(progs, devs, groups); err != nil {
				return err
			}
		}
		return nil
	}
	// The balanced program replays step after step: each step's
	// table is cleared for the next.
	if err := step(false, 3); err != nil {
		t.Fatalf("balanced two-rank program: %v", err)
	}
	err := step(true, 1)
	if err == nil || !strings.Contains(err.Error(), "plan: replay leak") {
		t.Fatalf("rank 1 skipped its wait: got %v, want a replay leak", err)
	}
}
