package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/ccer-go/ccer/internal/graph"
)

// bruteMax enumerates every matching over the edges with weight > t.
func bruteMax(n1, n2 int, edges []graph.Edge, t float64) float64 {
	w := make([][]float64, n1)
	for u := range w {
		w[u] = make([]float64, n2)
		for v := range w[u] {
			w[u][v] = -1
		}
	}
	for _, e := range edges {
		if e.W > t {
			w[e.U][e.V] = e.W
		}
	}
	used := make([]bool, n2)
	var best func(u int) float64
	best = func(u int) float64 {
		if u == n1 {
			return 0
		}
		b := best(u + 1) // u stays unmatched
		for v := 0; v < n2; v++ {
			if !used[v] && w[u][v] >= 0 {
				used[v] = true
				b = math.Max(b, w[u][v]+best(u+1))
				used[v] = false
			}
		}
		return b
	}
	return best(0)
}

func randomEdges(rng *rand.Rand, n1, n2 int, density float64) []graph.Edge {
	var edges []graph.Edge
	for u := 0; u < n1; u++ {
		for v := 0; v < n2; v++ {
			if rng.Float64() < density {
				// A coarse weight grid makes ties, and weights equal to
				// the threshold, common.
				edges = append(edges, graph.Edge{U: int32(u), V: int32(v), W: float64(rng.Intn(21)) / 20})
			}
		}
	}
	return edges
}

func TestMaxWeightMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n1, n2 := 1+rng.Intn(6), 1+rng.Intn(6)
		edges := randomEdges(rng, n1, n2, 0.2+0.8*rng.Float64())
		th := float64(rng.Intn(20)) / 20
		got, want := maxWeight(n1, n2, edges, th), bruteMax(n1, n2, edges, th)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (%dx%d, t=%v, edges %v): maxWeight %v, brute force %v",
				trial, n1, n2, th, edges, got, want)
		}
	}
}

func TestCheckMatchingRejects(t *testing.T) {
	g, err := newRefGraph(3, 3, []graph.Edge{
		{U: 2, V: 2, W: 0.4}, {U: 0, V: 1, W: 0.6},
		{U: 1, V: 1, W: 0.8}, {U: 0, V: 0, W: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMatching(g, []refPair{{0, 0, 0.9}, {1, 1, 0.8}}, 0.5); err != nil {
		t.Fatalf("valid matching rejected: %v", err)
	}
	for _, c := range []struct {
		name  string
		pairs []refPair
		t     float64
		want  string
	}{
		{"doubled left node", []refPair{{0, 0, 0.9}, {0, 1, 0.6}}, 0.5, "matched twice"},
		{"doubled right node", []refPair{{0, 1, 0.6}, {1, 1, 0.8}}, 0.5, "matched twice"},
		{"non-edge", []refPair{{1, 0, 0.9}}, 0.5, "not an edge"},
		{"wrong weight", []refPair{{0, 0, 0.8}}, 0.5, "carries weight"},
		{"weight at threshold", []refPair{{0, 1, 0.6}}, 0.6, "not above threshold"},
		{"weight below threshold", []refPair{{2, 2, 0.4}}, 0.5, "not above threshold"},
		{"out of range", []refPair{{3, 0, 0.9}}, 0.5, "outside"},
	} {
		err := checkMatching(g, c.pairs, c.t)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestScorePairs(t *testing.T) {
	gt := map[[2]int32]bool{{0, 0}: true, {1, 1}: true, {2, 2}: true, {3, 3}: true}
	got := scorePairs([]refPair{{0, 0, 1}, {1, 2, 1}}, gt)
	want := prf{P: 0.5, R: 0.25, F1: 2 * 0.5 * 0.25 / 0.75}
	if !got.near(want) {
		t.Fatalf("scorePairs = %+v, want %+v", got, want)
	}
	if s := scorePairs(nil, gt); s != (prf{}) {
		t.Fatalf("empty matching scored %+v", s)
	}
}

func TestNewRefGraphRejects(t *testing.T) {
	for _, c := range []struct {
		name  string
		edges []graph.Edge
		want  string
	}{
		{"repeated pair", []graph.Edge{{U: 0, V: 1, W: 0.5}, {U: 1, V: 0, W: 0.5}, {U: 0, V: 1, W: 0.7}}, "repeated"},
		{"weight above 1", []graph.Edge{{U: 0, V: 0, W: 1.5}}, "outside [0,1]"},
		{"negative weight", []graph.Edge{{U: 0, V: 0, W: -0.1}}, "outside [0,1]"},
		{"id out of range", []graph.Edge{{U: 0, V: 2, W: 0.5}}, "outside 2x2"},
	} {
		_, err := newRefGraph(2, 2, c.edges)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
