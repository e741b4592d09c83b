package main

// The output reference: checks of a matching that share no code with
// internal/core or internal/eval. A matching is judged against the edge
// list the benchmark holds, the ground truth of the task that produced
// the graph, and an exact maximum-weight matching computed here.

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"github.com/ccer-go/ccer/internal/graph"
)

// refPair is one matched pair as the reference sees it.
type refPair struct {
	U int32   `json:"u"`
	V int32   `json:"v"`
	W float64 `json:"w"`
}

// refGraph is the benchmark's own view of a bipartite graph: side sizes
// and the edges keyed by (u,v) in sorted order.
type refGraph struct {
	n1, n2 int
	keys   []int64 // u<<32 | v, ascending
	ws     []float64
}

// newRefGraph indexes edges and checks that the graph is well formed:
// node ids in range, weights in [0,1], no (u,v) repeated.
func newRefGraph(n1, n2 int, edges []graph.Edge) (*refGraph, error) {
	g := &refGraph{n1: n1, n2: n2, keys: make([]int64, len(edges)), ws: make([]float64, len(edges))}
	order := make([]int, len(edges))
	for i, e := range edges {
		if e.U < 0 || int(e.U) >= n1 || e.V < 0 || int(e.V) >= n2 {
			return nil, fmt.Errorf("edge (%d,%d) outside %dx%d", e.U, e.V, n1, n2)
		}
		if !(e.W >= 0 && e.W <= 1) {
			return nil, fmt.Errorf("edge (%d,%d) weight %v outside [0,1]", e.U, e.V, e.W)
		}
		order[i] = i
	}
	key := func(e graph.Edge) int64 { return int64(e.U)<<32 | int64(e.V) }
	sort.Slice(order, func(a, b int) bool { return key(edges[order[a]]) < key(edges[order[b]]) })
	for i, j := range order {
		g.keys[i], g.ws[i] = key(edges[j]), edges[j].W
		if i > 0 && g.keys[i] == g.keys[i-1] {
			return nil, fmt.Errorf("edge (%d,%d) repeated", edges[j].U, edges[j].V)
		}
	}
	return g, nil
}

func (g *refGraph) weight(u, v int32) (float64, bool) {
	k := int64(u)<<32 | int64(v)
	i := sort.Search(len(g.keys), func(i int) bool { return g.keys[i] >= k })
	if i < len(g.keys) && g.keys[i] == k {
		return g.ws[i], true
	}
	return 0, false
}

// edgesAbove counts the edges a matching at threshold t may use.
func (g *refGraph) edgesAbove(t float64) int64 {
	n := int64(0)
	for _, w := range g.ws {
		if w > t {
			n++
		}
	}
	return n
}

// checkMatching reports the first way pairs fail to be a 1-1 matching of
// g that uses only edges of g, with their recorded weight, above t.
func checkMatching(g *refGraph, pairs []refPair, t float64) error {
	left := make(map[int32]bool, len(pairs))
	right := make(map[int32]bool, len(pairs))
	for _, p := range pairs {
		if p.U < 0 || int(p.U) >= g.n1 || p.V < 0 || int(p.V) >= g.n2 {
			return fmt.Errorf("pair (%d,%d) outside %dx%d", p.U, p.V, g.n1, g.n2)
		}
		if left[p.U] {
			return fmt.Errorf("left node %d matched twice", p.U)
		}
		if right[p.V] {
			return fmt.Errorf("right node %d matched twice", p.V)
		}
		left[p.U], right[p.V] = true, true
		w, ok := g.weight(p.U, p.V)
		if !ok {
			return fmt.Errorf("pair (%d,%d) is not an edge", p.U, p.V)
		}
		if w != p.W {
			return fmt.Errorf("pair (%d,%d) carries weight %v, edge has %v", p.U, p.V, p.W, w)
		}
		if !(w > t) {
			return fmt.Errorf("pair (%d,%d) weight %v not above threshold %v", p.U, p.V, w, t)
		}
	}
	return nil
}

// prf is precision, recall and F1 of pairs against the ground-truth set.
type prf struct{ P, R, F1 float64 }

func scorePairs(pairs []refPair, gt map[[2]int32]bool) prf {
	hit := 0
	for _, p := range pairs {
		if gt[[2]int32{p.U, p.V}] {
			hit++
		}
	}
	var s prf
	if len(pairs) > 0 {
		s.P = float64(hit) / float64(len(pairs))
	}
	if len(gt) > 0 {
		s.R = float64(hit) / float64(len(gt))
	}
	if s.P+s.R > 0 {
		s.F1 = 2 * s.P * s.R / (s.P + s.R)
	}
	return s
}

func (a prf) near(b prf) bool {
	const eps = 1e-12
	return math.Abs(a.P-b.P) <= eps && math.Abs(a.R-b.R) <= eps && math.Abs(a.F1-b.F1) <= eps
}

func totalWeight(pairs []refPair) float64 {
	s := 0.0
	for _, p := range pairs {
		s += p.W
	}
	return s
}

// weightSlack absorbs float summation order when a matching's total is
// compared with the optimum.
func weightSlack(opt float64) float64 { return 1e-9 * math.Max(1, opt) }

// maxWeight returns the weight of a maximum-weight matching over the
// edges with weight > t. It runs successive shortest augmenting paths
// (Dijkstra over reduced costs) on the flow network source -> left ->
// right -> sink with arc cost -w, and stops at the first augmenting path
// that would not increase the total weight; the cost of the k-th
// shortest path is non-decreasing in k, so that prefix is optimal.
func maxWeight(n1, n2 int, edges []graph.Edge, t float64) float64 {
	n := n1 + n2 + 2
	src, sink := n1+n2, n1+n2+1
	f := &flowNet{head: make([]int32, n)}
	for i := range f.head {
		f.head[i] = -1
	}
	pot := make([]float64, n)
	for u := 0; u < n1; u++ {
		f.arc(src, u, 0)
	}
	for v := 0; v < n2; v++ {
		f.arc(n1+v, sink, 0)
	}
	// Initial potentials are exact shortest distances in the acyclic
	// start network: 0 at the source and left side, the cheapest incoming
	// arc on the right side, the cheapest right node at the sink.
	for _, e := range edges {
		if !(e.W > t) {
			continue
		}
		f.arc(int(e.U), n1+int(e.V), -e.W)
		if -e.W < pot[n1+int(e.V)] {
			pot[n1+int(e.V)] = -e.W
		}
	}
	for v := 0; v < n2; v++ {
		pot[sink] = math.Min(pot[sink], pot[n1+v])
	}

	dist := make([]float64, n)
	via := make([]int32, n)
	total := 0.0
	for {
		for i := range dist {
			dist[i], via[i] = math.Inf(1), -1
		}
		dist[src] = 0
		q := &distHeap{{node: int32(src)}}
		for q.Len() > 0 {
			it := heap.Pop(q).(distItem)
			if it.d > dist[it.node] {
				continue
			}
			for a := f.head[it.node]; a >= 0; a = f.next[a] {
				if f.cap[a] == 0 {
					continue
				}
				to := f.to[a]
				rc := f.cost[a] + pot[it.node] - pot[to]
				if rc < 0 {
					rc = 0 // rounding only; reduced costs are non-negative
				}
				if nd := it.d + rc; nd < dist[to] {
					dist[to], via[to] = nd, a
					heap.Push(q, distItem{node: to, d: nd})
				}
			}
		}
		if math.IsInf(dist[sink], 1) {
			return total
		}
		far := 0.0
		for _, d := range dist {
			if !math.IsInf(d, 1) && d > far {
				far = d
			}
		}
		for i, d := range dist {
			if math.IsInf(d, 1) {
				pot[i] += far
			} else {
				pot[i] += d
			}
		}
		gain := -(pot[sink] - pot[src])
		if gain <= 0 {
			return total
		}
		total += gain
		for x := int32(sink); x != int32(src); {
			a := via[x]
			f.cap[a]--
			f.cap[a^1]++
			x = f.to[a^1]
		}
	}
}

// flowNet is a unit-capacity residual network; arc a^1 is the reverse of
// arc a.
type flowNet struct {
	head, next, to []int32
	cap            []int8
	cost           []float64
}

func (f *flowNet) arc(from, to int, cost float64) {
	for _, a := range [2]struct {
		from, to int
		cap      int8
		cost     float64
	}{{from, to, 1, cost}, {to, from, 0, -cost}} {
		f.next = append(f.next, f.head[a.from])
		f.head[a.from] = int32(len(f.to))
		f.to = append(f.to, int32(a.to))
		f.cap = append(f.cap, a.cap)
		f.cost = append(f.cost, a.cost)
	}
}

type distItem struct {
	node int32
	d    float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}
