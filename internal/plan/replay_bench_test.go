package plan

import (
	"fmt"
	"testing"

	"orbit/internal/core"
	"orbit/internal/pp"
)

// plan64Inputs are the inputs of the plan-64 benchmark workload: the
// train-4d model on 8 scaled nodes (64 devices), 822 candidates.
func plan64Inputs() (Workload, ClusterShape) {
	w := Workload{Dim: 64, Heads: 4, Layers: 4, Tokens: 16, GlobalBatch: 32, Opts: core.DefaultOptions()}
	return w, ScaledShape(8, 1e-3)
}

// BenchmarkBest4Plan64 times one full 4D planning call on the plan-64
// inputs: every candidate compiled and replayed once.
func BenchmarkBest4Plan64(b *testing.B) {
	w, c := plan64Inputs()
	b.ReportAllocs()
	for range b.N {
		if _, err := Best4(w, c, Constraints{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict4Train4D times the replay of the train-4d workload's
// fixed TP2×PP2×FSDP2×DDP2 candidate on 2 scaled nodes.
func BenchmarkPredict4Train4D(b *testing.B) {
	w := Workload{Dim: 64, Heads: 4, Layers: 4, Tokens: 16, GlobalBatch: 16, Opts: core.DefaultOptions()}
	c := ScaledShape(2, 1e-3)
	cand := Candidate4{
		Layout: pp.Layout{TP: 2, PP: 2, FSDP: 2, DDP: 2},
		Knobs:  Knobs{PrefetchDepth: 1, MicroBatches: 4},
	}
	b.ReportAllocs()
	for range b.N {
		if p := Predict4(w, c, cand); p.OOM {
			b.Fatal(p.Note)
		}
	}
}

// BenchmarkPredict4Scale times one Predict4 call on TP2×PP2×FSDP(N/8)×DDP2
// with 4 micro-batches per data rank, for the train-4d model on N
// scaled devices.
func BenchmarkPredict4Scale(b *testing.B) {
	for _, n := range []int{16, 64, 512, 4096} {
		b.Run(fmt.Sprintf("devices=%d", n), func(b *testing.B) {
			l := pp.Layout{TP: 2, PP: 2, FSDP: n / 8, DDP: 2}
			w := Workload{Dim: 64, Heads: 4, Layers: 4, Tokens: 16, GlobalBatch: 4 * l.FSDP * l.DDP, Opts: core.DefaultOptions()}
			c := ScaledShape(n/8, 1e-3)
			cand := Candidate4{Layout: l, Knobs: Knobs{PrefetchDepth: 1, MicroBatches: 4}}
			b.ReportAllocs()
			for range b.N {
				if p := Predict4(w, c, cand); p.OOM {
					b.Fatal(p.Note)
				}
			}
		})
	}
}
