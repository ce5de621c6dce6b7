package plan

import (
	"testing"

	"orbit/internal/pp"
)

// discreteClasses is the partition with every rank and every group in
// a class of its own: the full replay of every rank.
func discreteClasses(l pp.Layout, c ClusterShape) classes {
	cl := classes{
		of:    make([]int32, l.Ranks()),
		group: make([]int32, len(newSimGrid(l, c.GPUsPerNode, c.Spec).groups)),
	}
	for r := range cl.of {
		cl.of[r] = int32(r)
		cl.reps = append(cl.reps, int32(r))
	}
	for g := range cl.group {
		cl.group[g] = int32(g)
	}
	return cl
}

// TestSymmetricReplayMatchesFull: replaying one representative per
// rank class must predict exactly what replaying every rank predicts,
// for every 4D candidate of the calibration clusters, the golden's
// odd-sizes shape, and 6-GPU nodes whose groups straddle node
// boundaries at different offsets.
func TestSymmetricReplayMatchesFull(t *testing.T) {
	var odd goldenShape
	for _, s := range replayGoldenShapes() {
		if s.name == "odd-sizes-16" {
			odd = s
		}
	}
	straddle := ScaledShape(1, 1e-3)
	straddle.Nodes, straddle.GPUsPerNode, straddle.Spec.GPUsPerNode = 3, 6, 6
	shapes := []goldenShape{
		{"calibration-16", testWorkload(), ScaledShape(2, 1e-3), Constraints{}},
		{"calibration-64", testWorkload(), ScaledShape(8, 1e-3), Constraints{}},
		odd,
		{"straddle-3x6", odd.w, straddle, Constraints{}},
	}
	for _, s := range shapes {
		cands, err := Enumerate4(s.w, s.c, s.cons)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		reps, ranks, bad := 0, 0, 0
		for _, cand := range cands {
			l, opts := cand.Layout, cand.Options(s.w.Opts)
			cls := layoutClasses(l, s.c)
			full := discreteClasses(l, s.c)
			reps, ranks = reps+len(cls.reps), ranks+l.Ranks()
			got := goldenLine(Plan4{Candidate4: cand, Pred: predict(s.w, s.c, l, opts, &cls)})
			want := goldenLine(Plan4{Candidate4: cand, Pred: predict(s.w, s.c, l, opts, &full)})
			if got != want {
				if bad++; bad <= 3 {
					t.Errorf("%s, %d rank classes:\n symmetric %s\n full      %s", s.name, len(cls.reps), got, want)
				}
			}
		}
		if bad > 3 {
			t.Errorf("%s: %d of %d candidates differ", s.name, bad, len(cands))
		}
		// The gate means something only if classes do merge ranks.
		if reps >= ranks {
			t.Errorf("%s: %d representatives for %d ranks", s.name, reps, ranks)
		}
		t.Logf("%s: %d candidates, %d representatives for %d ranks", s.name, len(cands), reps, ranks)
	}
}
