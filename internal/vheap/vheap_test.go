package vheap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPopOrder(t *testing.T) {
	prio := []float64{5, 1, 4, 2, 3}
	var h Heap
	h.Reset(prio)
	want := []int{1, 3, 4, 2, 0}
	for i, w := range want {
		v, p := h.PopMin()
		if v != w {
			t.Fatalf("pop %d: got vertex %d (prio %v), want %d", i, v, p, w)
		}
	}
	if h.Len() != 0 {
		t.Fatal("heap should be empty")
	}
}

// TestUpdateAndRemove: Update and Add reorder the heap, and each popped
// vertex is removed from it.
func TestUpdateAndRemove(t *testing.T) {
	var h Heap
	h.Reset([]float64{10, 20, 30, 40})
	h.Update(3, 5)  // 3 becomes the min
	h.Update(0, 25) // 0 sinks below 1
	h.Add(2, -10)   // 2 ties 1 at 20 and pops after it
	for i, w := range []int{3, 1, 2, 0} {
		if v, p := h.PopMin(); v != w {
			t.Fatalf("pop %d: got vertex %d (prio %v), want %d", i, v, p, w)
		}
	}
	if h.Contains(0) || h.Len() != 0 {
		t.Fatal("heap should be empty")
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	var h Heap
	h.Reset([]float64{1, 1, 1})
	var got []int
	for h.Len() > 0 {
		v, _ := h.PopMin()
		got = append(got, v)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("ties must pop in vertex order, got %v", got)
		}
	}
}

// Property: after an arbitrary sequence of updates and pops, popping
// everything yields priorities in non-decreasing order and matches a sorted
// reference.
func TestHeapSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		prio := make([]float64, n)
		for i := range prio {
			prio[i] = rng.NormFloat64() * 10
		}
		var h Heap
		h.Reset(prio)
		cur := make(map[int]float64, n)
		for v, p := range prio {
			cur[v] = p
		}
		// Random mutations.
		for k := 0; k < n; k++ {
			v := rng.Intn(n)
			if !h.Contains(v) {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				p := rng.NormFloat64() * 10
				h.Update(v, p)
				cur[v] = p
			case 1:
				d := rng.NormFloat64()
				h.Add(v, d)
				cur[v] += d
			case 2:
				u, _ := h.PopMin()
				delete(cur, u)
			}
		}
		var want []float64
		for _, p := range cur {
			want = append(want, p)
		}
		sort.Float64s(want)
		var got []float64
		for h.Len() > 0 {
			_, p := h.PopMin()
			got = append(got, p)
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyHeap(t *testing.T) {
	var h Heap
	h.Reset(nil)
	if h.Len() != 0 {
		t.Fatal("empty heap must have length 0")
	}
}

func BenchmarkPeelSequence(b *testing.B) {
	const n = 10000
	prio := make([]float64, n)
	rng := rand.New(rand.NewSource(7))
	for i := range prio {
		prio[i] = rng.Float64()
	}
	b.ResetTimer()
	var h Heap
	for i := 0; i < b.N; i++ {
		h.Reset(prio)
		for h.Len() > 0 {
			v, _ := h.PopMin()
			// Touch a few pseudo-neighbors like peeling would.
			for d := 1; d <= 3; d++ {
				u := (v + d*37) % n
				if h.Contains(u) {
					h.Add(u, -0.01)
				}
			}
		}
	}
}

// TestResetReuse: one heap refilled at growing and shrinking sizes pops every
// fill in exact (priority, id) order — Reset leaves nothing of the previous
// contents behind.
func TestResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h Heap
	for _, n := range []int{0, 1, 9, 64, 3, 130, 2, 0, 17} {
		prio := make([]float64, n)
		for i := range prio {
			prio[i] = float64(rng.Intn(5)) // heavy ties
		}
		h.Reset(prio)
		if h.Len() != n {
			t.Fatalf("Reset(%d): Len = %d", n, h.Len())
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(a, b int) bool {
			if prio[want[a]] != prio[want[b]] {
				return prio[want[a]] < prio[want[b]]
			}
			return want[a] < want[b]
		})
		for _, w := range want {
			if v, p := h.PopMin(); v != w || p != prio[w] {
				t.Fatalf("n=%d: popped (%d, %v), want (%d, %v)", n, v, p, w, prio[w])
			}
		}
	}
}
