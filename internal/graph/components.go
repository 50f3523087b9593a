package graph

// ConnectedComponents partitions the vertex set S into the connected
// components of the induced subgraph G(S). Components are returned as vertex
// sets in the original graph's ids; singleton vertices form their own
// component. Edge signs are ignored: a negative edge still connects.
//
// DCSGreedy (Algorithm 2, line 9) uses this to refine a disconnected solution
// into its best component, which never lowers the density (Property 1).
// Membership and visit marks come from pooled scratch buffers, so the call
// allocates only the component slices themselves.
func (g *Graph) ConnectedComponents(S []int) [][]int {
	in := acquireMark(g.n)
	seen := acquireMark(g.n)
	for _, v := range S {
		in.b[v] = true
	}
	var comps [][]int
	var stack []int
	for _, s := range S {
		if seen.b[s] {
			continue
		}
		var comp []int
		stack = append(stack[:0], s)
		seen.b[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			g.VisitNeighbors(u, func(v int, _ float64) {
				if in.b[v] && !seen.b[v] {
					seen.b[v] = true
					stack = append(stack, v)
				}
			})
		}
		comps = append(comps, comp)
	}
	// seen is only ever set on members of S, so clearing via S resets both.
	in.release(S)
	seen.release(S)
	return comps
}

// IsConnected reports whether the subgraph induced by S is connected. The
// empty set and singletons are connected by convention. One search from
// S[0] over pooled scratch: no allocation once the pools are warm.
func (g *Graph) IsConnected(S []int) bool {
	if len(S) <= 1 {
		return true
	}
	// unseen marks the members of S the search has not reached yet.
	unseen := acquireMark(g.n)
	for _, v := range S {
		unseen.b[v] = true
	}
	st := stackPool.Get().(*idBuf)
	stack := append(st.b[:0], S[0])
	unseen.b[S[0]] = false
	reached := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.VisitNeighbors(u, func(v int, _ float64) {
			if unseen.b[v] {
				unseen.b[v] = false
				reached++
				stack = append(stack, v)
			}
		})
	}
	st.b = stack[:0]
	stackPool.Put(st)
	unseen.release(S)
	return reached == len(S)
}

// BestComponent returns the connected component of G(S) with the highest
// average-degree density ρ(S') = W(S')/|S'|, implementing line 9 of
// Algorithm 2. It returns S itself (and its density) when S is empty.
func (g *Graph) BestComponent(S []int) ([]int, float64) {
	if len(S) == 0 {
		return S, 0
	}
	comps := g.ConnectedComponents(S)
	best := comps[0]
	bestRho := g.AverageDegreeOf(best)
	for _, c := range comps[1:] {
		if rho := g.AverageDegreeOf(c); rho > bestRho {
			best, bestRho = c, rho
		}
	}
	return best, bestRho
}
