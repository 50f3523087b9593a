package bench

import (
	"sort"
	"testing"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/runstate"
)

// Integration test: on the synthetic DBLP data the DCS algorithms must
// recover planted contrast groups — the end-to-end effectiveness claim behind
// Tables III/IV.
func TestPlantedGroupRecovery(t *testing.T) {
	ca := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 1234, N: 1500})
	gd := ca.EmergingGD()

	plantedSet := func(groups [][]int) map[string]bool {
		m := map[string]bool{}
		for _, g := range groups {
			s := append([]int(nil), g...)
			sort.Ints(s)
			m[key(s)] = true
		}
		return m
	}
	planted := plantedSet(ca.EmergingGroups)

	// DCSGreedy must return one of the planted emerging groups exactly.
	ad := core.DCSGreedy(runstate.New(nil), gd, 1)
	if !planted[key(ad.S)] {
		t.Errorf("DCSGreedy found %v (density %v), not a planted group", ad.S, ad.Density)
	}

	// NewSEA must return a planted group or a subset of one (affinity prefers
	// the tightest core).
	ga := core.NewSEA(runstate.New(nil), gd)
	if !subsetOfAny(ga.S, ca.EmergingGroups) {
		t.Errorf("NewSEA found %v, not within any planted group", ga.S)
	}

	// Top-k AD mining must recover several distinct planted groups.
	topk, _ := core.TopKAverageDegree(runstate.New(nil), gd, 4, 1)
	hits := 0
	for _, r := range topk {
		if planted[key(r.S)] {
			hits++
		}
	}
	if hits < 2 {
		t.Errorf("top-4 recovered only %d planted groups", hits)
	}

	// The disappearing direction must NOT return emerging groups.
	dis := core.DCSGreedy(runstate.New(nil), ca.DisappearingGD(), 1)
	if planted[key(dis.S)] {
		t.Error("disappearing DCS returned an emerging group")
	}
	if !plantedSet(ca.DisappearingGroups)[key(dis.S)] {
		t.Errorf("disappearing DCS %v is not a planted disappearing group", dis.S)
	}
}

func key(S []int) string {
	out := make([]byte, 0, 4*len(S))
	for _, v := range S {
		out = append(out, byte(v), byte(v>>8), byte(v>>16), ',')
	}
	return string(out)
}

func subsetOfAny(S []int, groups [][]int) bool {
	for _, g := range groups {
		set := map[int]bool{}
		for _, v := range g {
			set[v] = true
		}
		all := true
		for _, v := range S {
			if !set[v] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// Integration test: the wiki-like signed data — consistent groups are found
// in the consistent direction, conflicting groups in the conflicting one.
func TestWikiDirectionality(t *testing.T) {
	w := datagen.WikiGraphs(datagen.WikiConfig{Seed: 77, N: 1200, GroupSize: 30})
	cons := core.DCSGreedy(runstate.New(nil), w.ConsistentGD(), 1)
	conf := core.DCSGreedy(runstate.New(nil), w.ConflictingGD(), 1)
	if cons.Density <= 0 || conf.Density <= 0 {
		t.Fatal("both directions must find positive contrast")
	}
	overlap := func(S []int, groups [][]int) int {
		set := map[int]bool{}
		for _, g := range groups {
			for _, v := range g {
				set[v] = true
			}
		}
		c := 0
		for _, v := range S {
			if set[v] {
				c++
			}
		}
		return c
	}
	if o := overlap(cons.S, w.ConsistentGroups); o*2 < len(cons.S) {
		t.Errorf("consistent DCS overlaps planted consistent groups on only %d/%d vertices",
			o, len(cons.S))
	}
	if o := overlap(conf.S, w.ConflictingGroups); o*2 < len(conf.S) {
		t.Errorf("conflicting DCS overlaps planted conflicting groups on only %d/%d vertices",
			o, len(conf.S))
	}
}
