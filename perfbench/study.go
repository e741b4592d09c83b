package main

// The study workload: the paper's experiment in-process. Set-up
// generates the D1-D10 tasks; each round generates all four weight
// families of similarity graphs and runs the eight-algorithm threshold
// sweep over every graph on the worker budget, with the same public
// calls exp.BuildCorpusCtx makes. An op is one (graph, algorithm)
// sweep.

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/datagen"
	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/eval"
	"github.com/ccer-go/ccer/internal/exp"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/simgraph"
)

// studyScale sizes the D1-D10 analogs relative to the paper's Table 2.
const studyScale = 0.01

// optimumBudget caps the exact-optimum work per (graph, threshold): the
// reference runs when edges above t times min(|V1|,|V2|) stays below
// it. Larger pairs are checked on a seeded sample of optimumSample.
const (
	optimumBudget = 4_000_000
	optimumSample = 24
)

type studyGraph struct {
	sg simgraph.SimGraph
	gt *dataset.GroundTruth
}

func runStudy(o options, m *meter) error {
	l := m.layers
	m.gcBetweenRounds = true
	specs := datagen.Specs()
	var tasks []*dataset.Task
	err := m.timeSetup(func() error {
		start := time.Now()
		ts := make([]*dataset.Task, len(specs))
		for i, s := range specs {
			ts[i] = s.Generate(o.seed, studyScale)
		}
		l.since("datagen.tasks", start)
		tasks = ts
		return nil
	}, nil)
	if err != nil {
		return err
	}
	gtSets := make(map[*dataset.GroundTruth]map[[2]int32]bool, len(tasks))
	for _, t := range tasks {
		gtSets[t.GT] = gtSet(t.GT)
	}
	matchers := exp.Config{Seed: o.seed, Scale: studyScale}.Matchers()
	var first []eval.SweepResult

	err = m.runRounds(func(round int, traced bool) (roundStats, error) {
		var graphs []studyGraph
		var results []eval.SweepResult
		var lat []time.Duration
		wall, cpu, err := m.timed(func() error {
			if traced {
				l.on.Store(true)
				defer l.on.Store(false)
				defer l.runtimeRound()()
			}
			for i, spec := range specs {
				for _, f := range simgraph.Families() {
					start := time.Now()
					gs, gst := simgraph.GenerateStats(tasks[i], spec.KeyAttrs, simgraph.Options{
						Families:    []simgraph.Family{f},
						Parallelism: workers(),
					})
					if traced {
						l.since("simgraph."+string(f), start)
						fs := gst.Of(f)
						l.add("simgraph.pairs_visited", float64(fs.Visited))
						l.add("simgraph.pairs_skipped", float64(fs.Skipped))
					}
					for _, sg := range gs {
						graphs = append(graphs, studyGraph{sg, tasks[i].GT})
						if traced {
							l.add("simgraph.edges", float64(sg.G.NumEdges()))
						}
					}
				}
			}
			if traced {
				for _, g := range graphs {
					start := time.Now()
					warmIndex(g.sg.G)
					l.since("graph.index", start)
				}
			}
			units := len(graphs) * len(matchers)
			results = make([]eval.SweepResult, units)
			lat = make([]time.Duration, units)
			return parallel(units, func(j int) error {
				g := graphs[j/len(matchers)]
				mt := matchers[j%len(matchers)]
				start := time.Now()
				if traced {
					results[j] = tracedSweep(l, g.sg.G, g.gt, mt)
				} else {
					results[j] = eval.SweepOpts(g.sg.G, g.gt, mt, eval.SweepOptions{Repeats: 1, Parallelism: 1})
				}
				lat[j] = time.Since(start)
				return nil
			})
		})
		if err != nil {
			return roundStats{}, err
		}
		if round == 0 {
			first = results
		} else {
			compareRounds(m, round, first, results)
		}
		return roundStats{wall: wall, cpu: cpu, ops: lat}, nil
	})
	if err != nil {
		return err
	}
	checkStudy(o, m, tasks, first, matchers, gtSets)
	if o.trace {
		values := map[string]float64{
			"datagen.tasks_ms":       l.mean("datagen.tasks"),
			"graph.index_ms":         l.perRound("graph.index"),
			"eval.evaluate_ms":       l.perRound("eval.evaluate"),
			"simgraph.pairs_visited": l.perRound("simgraph.pairs_visited"),
			"simgraph.pairs_skipped": l.perRound("simgraph.pairs_skipped"),
			"simgraph.edges":         l.perRound("simgraph.edges"),
		}
		for _, f := range simgraph.Families() {
			values["simgraph."+string(f)+"_ms"] = l.perRound("simgraph." + string(f))
		}
		coreValues(l, values)
		l.finish(m, values)
	}
	return nil
}

// tracedSweep is eval.SweepOpts with each Match and Evaluate call timed:
// the same threshold grid and the same selection rule, the largest
// threshold with the best F1.
func tracedSweep(l *layers, g *graph.Bipartite, gt *dataset.GroundTruth, m core.Matcher) eval.SweepResult {
	m = core.Clone(m)
	res := eval.SweepResult{Algorithm: m.Name(), BestT: -1}
	for _, t := range eval.Thresholds() {
		start := time.Now()
		pairs := m.Match(g, t)
		l.since("core."+m.Name(), start)
		start = time.Now()
		met := eval.Evaluate(pairs, gt)
		l.since("eval.evaluate", start)
		res.Points = append(res.Points, eval.ThresholdPoint{T: t, Metrics: met})
		if res.BestT < 0 || met.F1 >= res.Best.F1 {
			res.BestT, res.Best = t, met
		}
	}
	return res
}

// warmIndex builds a graph's lazy matching index through its public
// accessors: the by-weight permutation, the CSR adjacency and the
// weight-carrying adjacency arrays.
func warmIndex(g *graph.Bipartite) {
	g.EdgesByWeight()
	if g.N1() > 0 {
		g.AdjList1(0)
	}
}

// coreValues reports each matcher's time and calls per traced round.
func coreValues(l *layers, values map[string]float64) {
	for _, name := range append(core.Names(), "HUN") {
		values["core."+name+"_ms"] = l.perRound("core." + name)
		if l.rounds > 0 {
			values["core."+name+"_calls"] = l.n["core."+name] / float64(l.rounds)
		}
	}
}

func gtSet(gt *dataset.GroundTruth) map[[2]int32]bool {
	s := make(map[[2]int32]bool, gt.Len())
	for _, p := range gt.Pairs {
		s[p] = true
	}
	return s
}

func toRef(pairs []core.Pair) []refPair {
	out := make([]refPair, len(pairs))
	for i, p := range pairs {
		out[i] = refPair{p.U, p.V, p.W}
	}
	return out
}

// checkStudy checks the first round's output after the timed rounds,
// generating the graphs again: every generated
// graph is well formed; every sweep selected the largest threshold with
// the best F1; and each (graph, algorithm) matching, re-run at that
// threshold, is valid, scores what the sweep reported, and does not
// exceed the exact optimum.
func checkStudy(o options, m *meter, tasks []*dataset.Task, results []eval.SweepResult,
	matchers []core.Matcher, gtSets map[*dataset.GroundTruth]map[[2]int32]bool) {
	var graphs []studyGraph
	for i, spec := range datagen.Specs() {
		for _, f := range simgraph.Families() {
			gs := simgraph.Generate(tasks[i], spec.KeyAttrs, simgraph.Options{
				Families: []simgraph.Family{f}, Parallelism: workers()})
			for _, sg := range gs {
				graphs = append(graphs, studyGraph{sg, tasks[i].GT})
			}
		}
	}
	if len(graphs)*len(matchers) != len(results) {
		m.problem("study: %d graphs generated for the check, the first round swept %d", len(graphs), len(results)/len(matchers))
		return
	}
	type bigPair struct{ gi, mi int }
	var mu sync.Mutex
	var big []bigPair
	var checked, total atomic.Int64
	report := func(format string, args ...any) {
		mu.Lock()
		m.problem(format, args...)
		mu.Unlock()
	}
	ref := make([]*refGraph, len(graphs))
	parallel(len(graphs), func(gi int) error {
		g := graphs[gi]
		name := g.sg.Dataset + "/" + string(g.sg.Family) + "/" + g.sg.Name
		rg, err := newRefGraph(g.sg.G.N1(), g.sg.G.N2(), g.sg.G.Edges())
		if err != nil {
			report("study graph %s: %v", name, err)
			return nil
		}
		ref[gi] = rg
		optimum := map[float64]float64{}
		for mi, mt := range matchers {
			r := results[gi*len(matchers)+mi]
			if err := checkSelection(r); err != nil {
				report("study %s %s: %v", name, r.Algorithm, err)
			}
			pairs := toRef(core.Clone(mt).Match(g.sg.G, r.BestT))
			if err := checkMatching(rg, pairs, r.BestT); err != nil {
				report("study %s %s at t=%v: %v", name, r.Algorithm, r.BestT, err)
				continue
			}
			want := r.Best
			if got := scorePairs(pairs, gtSets[g.gt]); !got.near(prf{want.Precision, want.Recall, want.F1}) {
				report("study %s %s at t=%v: re-run scores %+v, sweep reported %+v", name, r.Algorithm, r.BestT, got, want)
			}
			total.Add(1)
			if rg.edgesAbove(r.BestT)*int64(min(rg.n1, rg.n2)) > optimumBudget {
				mu.Lock()
				big = append(big, bigPair{gi, mi})
				mu.Unlock()
				continue
			}
			opt, ok := optimum[r.BestT]
			if !ok {
				opt = maxWeight(rg.n1, rg.n2, g.sg.G.Edges(), r.BestT)
				optimum[r.BestT] = opt
			}
			checked.Add(1)
			if w := totalWeight(pairs); w > opt+weightSlack(opt) {
				report("study %s %s at t=%v: weight %v exceeds the optimum %v", name, r.Algorithm, r.BestT, w, opt)
			}
		}
		return nil
	})
	// A seeded sample of the pairs above the budget.
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(big), func(i, j int) { big[i], big[j] = big[j], big[i] })
	big = big[:min(len(big), optimumSample)]
	parallel(len(big), func(k int) error {
		gi, mi := big[k].gi, big[k].mi
		g, r := graphs[gi], results[gi*len(matchers)+mi]
		if ref[gi] == nil {
			return nil
		}
		opt := maxWeight(ref[gi].n1, ref[gi].n2, g.sg.G.Edges(), r.BestT)
		checked.Add(1)
		if w := totalWeight(toRef(core.Clone(matchers[mi]).Match(g.sg.G, r.BestT))); w > opt+weightSlack(opt) {
			report("study %s/%s %s at t=%v: weight %v exceeds the optimum %v", g.sg.Dataset, g.sg.Name, r.Algorithm, r.BestT, w, opt)
		}
		return nil
	})
	fmt.Fprintf(os.Stderr, "perfbench: study: %d graphs, %d sweeps checked, optimum compared on %d\n",
		len(graphs), total.Load(), checked.Load())
}

// checkSelection verifies the paper's rule on a sweep's points: the
// selected threshold is the largest one with the best F1.
func checkSelection(r eval.SweepResult) error {
	if len(r.Points) != len(eval.Thresholds()) {
		return fmt.Errorf("%d sweep points, want %d", len(r.Points), len(eval.Thresholds()))
	}
	bestF1, bestT := -1.0, -1.0
	for _, p := range r.Points {
		if p.Metrics.F1 > bestF1 || (p.Metrics.F1 == bestF1 && p.T > bestT) {
			bestF1, bestT = p.Metrics.F1, p.T
		}
	}
	if r.BestT != bestT || r.Best.F1 != bestF1 {
		return fmt.Errorf("selected t=%v F1=%v, the rule gives t=%v F1=%v", r.BestT, r.Best.F1, bestT, bestF1)
	}
	return nil
}

// compareRounds checks that a later round reproduced the first round's
// selections and scores; the work is deterministic at a fixed seed.
func compareRounds(m *meter, round int, first, results []eval.SweepResult) {
	if len(first) != len(results) {
		m.problem("study round %d: %d sweeps, round 0 had %d", round, len(results), len(first))
		return
	}
	for j := range results {
		a, b := first[j], results[j]
		if a.Algorithm != b.Algorithm || a.BestT != b.BestT || a.Best != b.Best {
			m.problem("study round %d sweep %d: %s t=%v %+v, round 0 had %s t=%v %+v",
				round, j, b.Algorithm, b.BestT, b.Best, a.Algorithm, a.BestT, a.Best)
			return
		}
	}
}
