package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/densest"
	"github.com/dcslib/dcs/internal/graph"
)

// goldenDigests pins the exact output bits of the average-degree solvers on
// fixed seeded inputs: vertex sets plus math.Float64bits of every density,
// ratio and α. The partest harness only proves sequential ≡ parallel; this
// test proves "same bits as before", so any change to the peel engine, the
// difference-graph builders or the candidate arithmetic that moves a single
// float bit or a tie-break fails here. Regenerate (and justify in the change
// log) only when an output is meant to change.
var goldenDigests = map[string]string{
	"seed1/gd":           "020424b26d0bd7ae64a9c0275ebecd15ccf37906db99f8c14a6870d724798e8e",
	"seed1/gd-without":   "7b32ada32e1e0632b6ebf3fa951e6b52aaa29a10cd0f54b04609e38b01f1e4c0",
	"seed1/gd-positive":  "d7288405a1aa406e1df2310442e0a7ebc2fea59e3287c6c33e7c1443ea45496e",
	"seed1/gd-backed":    "020424b26d0bd7ae64a9c0275ebecd15ccf37906db99f8c14a6870d724798e8e",
	"seed1/gd-discrete":  "92d77e7f114aa516442c5695a508690c0674776d8184d7a1ba292979283c196e",
	"seed1/ratio":        "dfa5968c5165be6923ad7290e421bd7a505e74bf02df4222afbfe8d8065bfcdf",
	"seed1/ratio-inf":    "e39007e38de751fcc74d4f9239da5a84290956b2b6e27ca2e762d67aaa692049",
	"seed1/ratio-backed": "dfa5968c5165be6923ad7290e421bd7a505e74bf02df4222afbfe8d8065bfcdf",
	"seed7/gd":           "e0acd7270ae0216335dc8b3722ffd725c8cd09517039a9c87064cae0c1c80d15",
	"seed7/gd-without":   "7e2aa87affe317c59184435cf3d3d7dff1112a1d8a3e73359b3e6b9b245fbb6d",
	"seed7/gd-positive":  "06f9eb71e426e6c9ee6d5779ede87073e8af4310dec6da78cc81655e32e14986",
	"seed7/gd-backed":    "e0acd7270ae0216335dc8b3722ffd725c8cd09517039a9c87064cae0c1c80d15",
	"seed7/gd-discrete":  "04846bfd5e927f356b1c1e6b76f3e24797bf114f312870b79e6904026a5071ed",
	"seed7/ratio":        "aa5db7e66df6b3094ed9d7d02cc6258acfd897118fa68cde3d295217feca4124",
	"seed7/ratio-inf":    "7facaffb4aac0f82ca86168033705207a5e3ad6a3d74c1da8a51fd9a8baf083b",
	"seed7/ratio-backed": "aa5db7e66df6b3094ed9d7d02cc6258acfd897118fa68cde3d295217feca4124",
	"seed3/gd":           "062b3621a2e18dcb1aa186bfe49dbe5ea5248ff1cdfe4246b6090c82b21d4de9",
	"seed3/gd-without":   "801a5d8d44eefb14b5c97386baf17b5bbb4532eedf4897d3dfc662f612e1bb5f",
	"seed3/gd-positive":  "7910d286887271a4e0a0ac7b3f591fe1a2691158bb837954492536713cfbc682",
	"seed3/gd-backed":    "062b3621a2e18dcb1aa186bfe49dbe5ea5248ff1cdfe4246b6090c82b21d4de9",
	"seed3/gd-discrete":  "9cd850f92b7c652d496fbb34766309ff1c51fa1b3cb894eb38cc3180d5ba92b5",
	"seed3/ratio":        "cad05fcb6e6d85f58eb5108696754cbcd8812e66c2be51078f6078f92b260ae0",
	"seed3/ratio-inf":    "12151aeca843f607b786007a234c8d340cb5361ea976394168eb2d370e3a27b6",
	"seed3/ratio-backed": "cad05fcb6e6d85f58eb5108696754cbcd8812e66c2be51078f6078f92b260ae0",
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

// goldenBacked re-hosts g's CSR arrays in caller-owned storage adopted by
// graph.FromCSR, the way dcsd serves mmapped snapshots.
func goldenBacked(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	off, ids, ws, _, _ := g.CSR()
	b, err := graph.FromCSR(g.N(), append([]int(nil), off...), append([]int32(nil), ids...),
		append([]float64(nil), ws...), nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenAvgDeg digests every average-degree entry point on one difference
// graph: DCSGreedy, top-5 (sequential and at 4 workers), the warm start from
// a planted prior, and the raw peel at 1 and 4 workers.
func goldenAvgDeg(gd *graph.Graph, prior []int) string {
	h := goldenHash{sha256.New()}
	h.ad(DCSGreedy(gd))
	for _, r := range TopKAverageDegree(gd, 5) {
		h.ad(r)
	}
	par, cut := TopKAverageDegreeCtx(context.Background(), gd, 5, 4)
	for _, r := range par {
		h.ad(r)
	}
	h.bools(cut)
	warm, hit := DCSGreedyWarmCtx(context.Background(), gd, prior)
	h.ad(warm)
	h.bools(hit)
	for _, workers := range []int{1, 4} {
		res := densest.GreedyPar(gd, workers)
		h.ints(res.S)
		h.floats(res.Density)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenRatio(g1, g2 *graph.Graph) string {
	h := goldenHash{sha256.New()}
	h.ratio(MaxRatioContrast(g1, g2))
	h.ratio(MaxRatioContrastCtx(context.Background(), g1, g2, 4))
	return hex.EncodeToString(h.Sum(nil))
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
	}
	for name, want := range goldenDigests {
		if got[name] != want {
			t.Errorf("%s: digest %s, want %s", name, got[name], want)
		}
	}
}
