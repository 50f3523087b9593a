package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/densest"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/oqc"
	"github.com/dcslib/dcs/internal/runstate"
	"github.com/dcslib/dcs/internal/simplex"
)

// goldenDigests pins the exact output bits of the solvers on fixed seeded
// inputs: vertex sets plus math.Float64bits of every density, ratio and α,
// and for the affinity solvers every embedding entry, affinity and GAStats
// counter. The partest harness only proves sequential ≡ parallel; this
// test proves "same bits as before", so any change to the peel engine, the
// difference-graph builders or the candidate arithmetic that moves a single
// float bit or a tie-break fails here. Regenerate (and justify in the change
// log) only when an output is meant to change.
var goldenDigests = map[string]string{
	"seed1/gd":            "020424b26d0bd7ae64a9c0275ebecd15ccf37906db99f8c14a6870d724798e8e",
	"seed1/gd-without":    "7b32ada32e1e0632b6ebf3fa951e6b52aaa29a10cd0f54b04609e38b01f1e4c0",
	"seed1/gd-positive":   "d7288405a1aa406e1df2310442e0a7ebc2fea59e3287c6c33e7c1443ea45496e",
	"seed1/gd-backed":     "020424b26d0bd7ae64a9c0275ebecd15ccf37906db99f8c14a6870d724798e8e",
	"seed1/gd-discrete":   "92d77e7f114aa516442c5695a508690c0674776d8184d7a1ba292979283c196e",
	"seed1/ratio":         "dfa5968c5165be6923ad7290e421bd7a505e74bf02df4222afbfe8d8065bfcdf",
	"seed1/ratio-inf":     "e39007e38de751fcc74d4f9239da5a84290956b2b6e27ca2e762d67aaa692049",
	"seed1/ratio-backed":  "dfa5968c5165be6923ad7290e421bd7a505e74bf02df4222afbfe8d8065bfcdf",
	"seed1/local":         "6cceaeb0517175f4a5136454fe1b5ee8b9eb8ac0b59d0c19e7190ff7d6a89293",
	"seed7/gd":            "e0acd7270ae0216335dc8b3722ffd725c8cd09517039a9c87064cae0c1c80d15",
	"seed7/gd-without":    "7e2aa87affe317c59184435cf3d3d7dff1112a1d8a3e73359b3e6b9b245fbb6d",
	"seed7/gd-positive":   "06f9eb71e426e6c9ee6d5779ede87073e8af4310dec6da78cc81655e32e14986",
	"seed7/gd-backed":     "e0acd7270ae0216335dc8b3722ffd725c8cd09517039a9c87064cae0c1c80d15",
	"seed7/gd-discrete":   "04846bfd5e927f356b1c1e6b76f3e24797bf114f312870b79e6904026a5071ed",
	"seed7/ratio":         "aa5db7e66df6b3094ed9d7d02cc6258acfd897118fa68cde3d295217feca4124",
	"seed7/ratio-inf":     "7facaffb4aac0f82ca86168033705207a5e3ad6a3d74c1da8a51fd9a8baf083b",
	"seed7/ratio-backed":  "aa5db7e66df6b3094ed9d7d02cc6258acfd897118fa68cde3d295217feca4124",
	"seed7/local":         "da4e4c9e6f453b44c78c8cf2937ebc67c69a7e6763df50290eef4f613a9ceb51",
	"seed3/gd":            "062b3621a2e18dcb1aa186bfe49dbe5ea5248ff1cdfe4246b6090c82b21d4de9",
	"seed3/gd-without":    "801a5d8d44eefb14b5c97386baf17b5bbb4532eedf4897d3dfc662f612e1bb5f",
	"seed3/gd-positive":   "7910d286887271a4e0a0ac7b3f591fe1a2691158bb837954492536713cfbc682",
	"seed3/gd-backed":     "062b3621a2e18dcb1aa186bfe49dbe5ea5248ff1cdfe4246b6090c82b21d4de9",
	"seed3/gd-discrete":   "9cd850f92b7c652d496fbb34766309ff1c51fa1b3cb894eb38cc3180d5ba92b5",
	"seed3/ratio":         "cad05fcb6e6d85f58eb5108696754cbcd8812e66c2be51078f6078f92b260ae0",
	"seed3/ratio-inf":     "12151aeca843f607b786007a234c8d340cb5361ea976394168eb2d370e3a27b6",
	"seed3/ratio-backed":  "cad05fcb6e6d85f58eb5108696754cbcd8812e66c2be51078f6078f92b260ae0",
	"seed3/local":         "a25918ada337f4362a2a083bf1738cfa16e7427e8b23c13f81a2e71b75b09e96",
	"seed1/ga-newsea":     "9f5547369147f49ebe726e4a31e0dd9f6f9bfc69456d52b82d7e6240027d8154",
	"seed1/ga-warm":       "6da050f235db63e3dce4405da70b07f8e28e3a46651d696aaf9013655f34a098",
	"seed1/ga-sea":        "470ee273d19bc88e478dacee1d8477303bdb5f3b0bf4d72a4e6bcd4ba033e1bb",
	"seed1/ga-seacd-full": "fff5279c532a2bdf83683e91b8ca505828f919667382ff04d2ea213d76bdd478",
	"seed1/ga-cliques":    "02b863ef9dce74711fa2e468ad684c9af3f55bbe4ae8f66d40e1d7fbee125917",
	"seed1/ga-topk":       "ddfcd39105c1d6c86c8e0385efd2d09c1ef774274836fd578bf2d7697a58ca1a",
	"seed7/ga-newsea":     "312279901e5a50403d56f88dff00d7dda055e59c9e6cbbee74b177f181087c5a",
	"seed7/ga-warm":       "5ea025cf4752cc8a77df6f29531ac4aa3d3ce71ce91d3001dff499a9b0e68452",
	"seed7/ga-sea":        "e239cbb705dcca0fd32fb8c91c70aed83c8598de82894f6abacbe67b8ec7b38f",
	"seed7/ga-seacd-full": "6091a74e1ad8c37450aead4946f96982ea2b74333d7cafcd5712b69dda2a0fbb",
	"seed7/ga-cliques":    "09588d7edb3d6d0145857e7bc306cd0e16866ecc9955ecf4ad797bbdfe124fc1",
	"seed7/ga-topk":       "e08a760d5f1be6f74a89b36f4650efe334248c749ee46bff44302ff057e01349",
	"seed3/ga-newsea":     "d350e451436ea48374d964b2690caa26efa0d06af2cd5b6650c9520703019ac8",
	"seed3/ga-warm":       "49f7ef645546008ceb94fcbb668cef38fa13a9ec6b5d7250c857f1f6ece2a7ee",
	"seed3/ga-sea":        "b1a0cb86ba31e0f68ad5ee066f45f0392dabe3643d2dc3495065bdb0a9b67cbd",
	"seed3/ga-seacd-full": "f10acc743fb81860a865456ab99280eeaa3ee8da9896328489aecf9f49f60316",
	"seed3/ga-cliques":    "0ca2a069e25c86b6bc18014bc42b54ba68745367a680d4d28b7c5880ce6b97bd",
	"seed3/ga-topk":       "7add225ab972f15b56235e7f01a2d4f1aec65093b12a840c31a2e3247e06c15e",
	"peel/random":         "2298ae176084b8f7786689203452c6e67bb80940f12a89da8e19003cf5ea38dc",
}

type goldenHash struct{ hash.Hash }

func (h goldenHash) ints(s []int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
	h.Write(b[:])
	for _, v := range s {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func (h goldenHash) floats(fs ...float64) {
	var b [8]byte
	for _, f := range fs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
}

func (h goldenHash) bools(bs ...bool) {
	for _, v := range bs {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
}

func (h goldenHash) ad(r ADResult) {
	h.ints(r.S)
	h.floats(r.Density, r.TotalWeight, r.EdgeDensity, r.Ratio)
	h.bools(r.PositiveClique, r.Connected, r.Interrupted)
}

func (h goldenHash) ratio(r RatioResult) {
	h.ints(r.S)
	h.floats(r.Alpha, r.Density2, r.Density1)
	h.bools(r.Interrupted)
}

// embedding digests a simplex vector over the support S it was reported with.
func (h goldenHash) embedding(S []int, x *simplex.Vector) {
	h.ints(S)
	for _, u := range S {
		h.floats(x.Get(u))
	}
}

func (h goldenHash) ga(r GAResult) {
	h.embedding(r.S, r.X)
	h.floats(r.Affinity, r.Density, r.EdgeDensity, r.TotalWeight)
	h.ints([]int{r.Stats.Inits, r.Stats.ShrinkIters, r.Stats.Expansions, r.Stats.ExpansionErrors, r.Stats.RefineSteps})
	h.bools(r.PositiveClique, r.Interrupted)
}

func (h goldenHash) cliques(cs []Clique) {
	h.ints([]int{len(cs)})
	for _, c := range cs {
		h.embedding(c.S, c.X)
		h.floats(c.Affinity)
	}
}

// goldenBacked re-hosts g's CSR arrays in caller-owned storage adopted by
// graph.FromCSR, the way dcsd serves mmapped snapshots.
func goldenBacked(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	off, ids, ws, _ := g.CSR()
	b, err := graph.FromCSR(g.N(), append([]int(nil), off...), append([]int32(nil), ids...),
		append([]float64(nil), ws...), nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenAvgDeg digests every average-degree entry point on one difference
// graph: DCSGreedy, top-5 (sequential and at 4 workers), the warm start from
// a planted prior, and the raw peel.
func goldenAvgDeg(gd *graph.Graph, prior []int) string {
	h := goldenHash{sha256.New()}
	h.ad(DCSGreedy(runstate.New(nil), gd, 1))
	seq, _ := TopKAverageDegree(runstate.New(nil), gd, 5, 1)
	for _, r := range seq {
		h.ad(r)
	}
	par, cut := TopKAverageDegree(runstate.New(nil), gd, 5, 4)
	for _, r := range par {
		h.ad(r)
	}
	h.bools(cut)
	warm, hit := DCSGreedyWarm(runstate.New(nil), gd, prior)
	h.ad(warm)
	h.bools(hit)
	// The raw peel is hashed twice: the digests were taken when it ran at 1
	// and 4 workers, and two runs of the one peel keep their bytes.
	for range 2 {
		res := densest.Greedy(runstate.New(nil), gd)
		h.ints(res.S)
		h.floats(res.Density)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenLocal digests the local searches that no solver digest pins on its
// own: densest.LocalImprove from each prior (DCSGreedyWarm's digest shows it
// only when the warm candidate wins) and oqc's Best and LocalSearch.
func goldenLocal(gd *graph.Graph, seed int, priors ...[]int) string {
	h := goldenHash{sha256.New()}
	for _, prior := range priors {
		res := densest.LocalImprove(runstate.New(nil), gd, prior)
		h.ints(res.S)
		h.floats(res.Density)
	}
	for _, res := range []oqc.Result{
		oqc.Best(runstate.New(nil), gd, 1.0/3),
		oqc.LocalSearch(runstate.New(nil), gd, 1.0/3, seed),
	} {
		h.ints(res.S)
		h.floats(res.Surplus, res.Density)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenPeel digests the raw peel on 400 seeded small graphs with Gaussian
// float weights, every other one a WithoutVertices view. Float sums depend on
// their association, so this pins the order in which the peel sums W(V) —
// which integer-weighted or single-component inputs cannot see — and the
// views pin how masked vertices leave the peel.
func goldenPeel() string {
	h := goldenHash{sha256.New()}
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 400; i++ {
		n := 2 + rng.Intn(39)
		b := graph.NewBuilder(n)
		for k := rng.Intn(3 * n); k > 0; k-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				b.AddEdge(u, v, rng.NormFloat64())
			}
		}
		g := b.Build()
		if i%2 == 1 {
			var drop []int
			for v := 0; v < n; v++ {
				if rng.Intn(4) == 0 {
					drop = append(drop, v)
				}
			}
			g = g.WithoutVertices(drop)
		}
		res := densest.Greedy(runstate.New(nil), g)
		h.ints(res.S)
		h.floats(res.Density)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenRatio(g1, g2 *graph.Graph) string {
	h := goldenHash{sha256.New()}
	h.ratio(MaxRatioContrast(runstate.New(nil), g1, g2, 1))
	h.ratio(MaxRatioContrast(runstate.New(nil), g1, g2, 4))
	return hex.EncodeToString(h.Sum(nil))
}

// goldenAffinity digests the affinity solvers on one difference graph:
// NewSEA, its warm start from each prior (with the embedding a positive-clique
// prior competes with), SEACD+Refine from every vertex,
// CollectCliques at 1 and 4 workers and the disjoint top-5. SEA+Refine runs
// from 8 fixed starts only: SEARefineFull from every vertex is left out for
// its run time.
func goldenAffinity(got map[string]string, p string, gd *graph.Graph, priors ...[]int) {
	digest := func(name string, fn func(h goldenHash)) {
		h := goldenHash{sha256.New()}
		fn(h)
		got[p+name] = hex.EncodeToString(h.Sum(nil))
	}
	digest("ga-newsea", func(h goldenHash) { h.ga(NewSEA(runstate.New(nil), gd)) })
	digest("ga-warm", func(h goldenHash) {
		for _, prior := range priors {
			res, hit := NewSEAWarm(runstate.New(nil), gd, prior)
			h.ga(res)
			h.bools(hit)
			if gd.IsPositiveClique(prior) {
				x := CliqueEmbedding(runstate.New(nil), gd, prior)
				h.embedding(x.Support(), x)
			}
		}
	})
	digest("ga-sea", func(h goldenHash) {
		gdp := gd.PositivePart()
		var starts []int
		for u := 0; u < gdp.N(); u++ {
			if gdp.OutDegree(u) > 0 {
				starts = append(starts, u)
			}
		}
		for i := 0; i < 8; i++ {
			x := simplex.Indicator(gdp.N(), starts[i*len(starts)/8])
			st := SEA(runstate.New(nil), gdp, x)
			st.RefineSteps = Refine(runstate.New(nil), gdp, x)
			h.embedding(x.Support(), x)
			h.ints([]int{st.Inits, st.ShrinkIters, st.Expansions, st.ExpansionErrors, st.RefineSteps})
		}
	})
	digest("ga-seacd-full", func(h goldenHash) { h.ga(SEACDRefineFull(runstate.New(nil), gd, GAOptions{})) })
	digest("ga-cliques", func(h goldenHash) {
		for _, workers := range []int{1, 4} {
			cs, cut := CollectCliques(runstate.New(nil), gd, GAOptions{Parallelism: workers})
			h.cliques(cs)
			h.bools(cut)
		}
	})
	digest("ga-topk", func(h goldenHash) {
		cs, cut := TopKGraphAffinity(runstate.New(nil), gd, 5, GAOptions{})
		h.cliques(cs)
		h.bools(cut)
	})
}

func TestGoldenBits(t *testing.T) {
	got := map[string]string{}
	for _, in := range []struct {
		seed int64
		n    int
	}{{1, 600}, {7, 600}, {3, 2000}} {
		c := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: in.seed, N: in.n})
		gd := c.EmergingGD()
		prior := c.EmergingGroups[0]
		// A prior that drifted: one emerging group glued to a disappearing
		// one, so the warm refinement has work to do.
		drifted := append(append([]int(nil), c.EmergingGroups[1]...), c.DisappearingGroups[0]...)
		strip := append(append([]int(nil), c.EmergingGroups[0]...), c.EmergingGroups[2]...)
		p := fmt.Sprintf("seed%d/", in.seed)
		got[p+"gd"] = goldenAvgDeg(gd, prior)
		got[p+"gd-without"] = goldenAvgDeg(gd.WithoutVertices(strip), drifted)
		got[p+"gd-positive"] = goldenAvgDeg(gd.PositivePart(), drifted)
		got[p+"gd-backed"] = goldenAvgDeg(goldenBacked(t, gd), prior)
		got[p+"gd-discrete"] = goldenAvgDeg(c.EmergingDiscreteGD(), drifted)
		// Bounded ratio: G1 overlays every G2 edge, so α is finite and the
		// full binary search runs.
		g1 := graph.Blend(c.G1, c.G2, 1, 1)
		got[p+"ratio"] = goldenRatio(g1, c.G2)
		got[p+"ratio-inf"] = goldenRatio(c.G1, c.G2)
		got[p+"ratio-backed"] = goldenRatio(goldenBacked(t, g1), goldenBacked(t, c.G2))
		got[p+"local"] = goldenLocal(gd, prior[0], prior, drifted)
		goldenAffinity(got, p, gd, prior, drifted)
	}
	got["peel/random"] = goldenPeel()
	for name, want := range goldenDigests {
		if got[name] != want {
			t.Errorf("%s: digest %s, want %s", name, got[name], want)
		}
	}
}
