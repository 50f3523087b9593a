package core

import (
	"github.com/dcslib/dcs/internal/runstate"
	"math/rand"
	"reflect"
	"testing"
)

// Parallel multi-initialization must be deterministic and identical to the
// sequential run (same winner, same statistics, same clique sets), and must
// be race-free (run these under -race).
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		n := 10 + rng.Intn(30)
		gd := randomSignedGraph(rng, n, 0.3, 5)

		seq := SEACDRefineFull(runstate.New(nil), gd, GAOptions{})
		par := SEACDRefineFull(runstate.New(nil), gd, GAOptions{Parallelism: 4})
		if !almostEqual(seq.Affinity, par.Affinity) {
			t.Fatalf("trial %d: affinity %v (seq) vs %v (par)", trial, seq.Affinity, par.Affinity)
		}
		if len(seq.S) != len(par.S) {
			t.Fatalf("trial %d: support %v vs %v", trial, seq.S, par.S)
		}
		for i := range seq.S {
			if seq.S[i] != par.S[i] {
				t.Fatalf("trial %d: support %v vs %v", trial, seq.S, par.S)
			}
		}
		if seq.Stats != par.Stats {
			t.Fatalf("trial %d: stats %+v vs %+v", trial, seq.Stats, par.Stats)
		}

		cseq, _ := CollectCliques(runstate.New(nil), gd, GAOptions{})
		cpar, _ := CollectCliques(runstate.New(nil), gd, GAOptions{Parallelism: 4})
		if len(cseq) != len(cpar) {
			t.Fatalf("trial %d: %d cliques (seq) vs %d (par)", trial, len(cseq), len(cpar))
		}
		for i := range cseq {
			if supportKey(cseq[i].S) != supportKey(cpar[i].S) {
				t.Fatalf("trial %d: clique %d differs: %v vs %v", trial, i, cseq[i].S, cpar[i].S)
			}
		}
		// Bitwise, affinities and embeddings included, at degrees 2 and 4.
		if c2, _ := CollectCliques(runstate.New(nil), gd, GAOptions{Parallelism: 2}); !reflect.DeepEqual(cseq, c2) || !reflect.DeepEqual(cseq, cpar) {
			t.Fatalf("trial %d: parallel CollectCliques is not bitwise identical to sequential", trial)
		}
	}
}

func TestParallelSEAReplicator(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	gd := randomSignedGraph(rng, 25, 0.3, 4)
	seq := SEARefineFull(runstate.New(nil), gd, GAOptions{})
	par := SEARefineFull(runstate.New(nil), gd, GAOptions{Parallelism: 3})
	if !almostEqual(seq.Affinity, par.Affinity) {
		t.Fatalf("affinity %v (seq) vs %v (par)", seq.Affinity, par.Affinity)
	}
	if seq.Stats.ExpansionErrors != par.Stats.ExpansionErrors {
		t.Fatalf("error counts differ: %d vs %d", seq.Stats.ExpansionErrors, par.Stats.ExpansionErrors)
	}
}
