package main

// The match workload: one in-process erserve with the default config and
// no data directory. Set-up generates a fixed set of similarity graphs
// server-side; each round two closed-loop clients send a seeded, fixed
// list of POST /v1/match requests. An op is one request.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/datagen"
	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/eval"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/serve"
	"github.com/ccer-go/ccer/internal/simgraph"
)

const (
	matchScale = 0.01
	// matchDataSeed fixes the served graphs. The HUN requests that fail
	// (see README) must fail on inputs that do not depend on --seed, so
	// --seed draws the request list, not the graphs.
	matchDataSeed = 42
)

// matchFamilies are the served graphs: one weight family of four
// datasets, from 26x25 nodes up to the largest graphs at matchScale.
var matchFamilies = []struct {
	dataset string
	family  simgraph.Family
	hun     bool // every graph gets HUN requests at hunThresholds
}{
	{"D4", simgraph.SBSem, false},
	{"D7", simgraph.SBSem, true},
	{"D9", simgraph.SASem, false},
	{"D10", simgraph.SBSem, false},
}

var hunThresholds = []float64{0.25, 0.5, 0.75}

// The round's make-up. Every key is distinct; hot keys repeat in a
// round, cold keys appear once. A batch request asks for the default
// eight algorithms, so it occupies eight cache entries.
const (
	hotSingles, hotSingleRepeats = 32, 4
	coldSingles                  = 96
	hotBatches, hotBatchRepeats  = 4, 4
	coldBatches                  = 16
)

type matchGraph struct {
	name    string
	g       *graph.Bipartite
	ref     *refGraph
	task    *dataset.GroundTruth
	gt      map[[2]int32]bool
	version int64
	family  int // index into matchFamilies
	hun     bool
}

// matchReq is one request of the round.
type matchReq struct {
	graph int
	alg   string // "" asks for the default eight
	t     float64
	body  []byte
}

type matchReply struct {
	Graph     string  `json:"graph"`
	Version   int64   `json:"version"`
	Threshold float64 `json:"threshold"`
	Results   []struct {
		Algorithm string    `json:"algorithm"`
		Cached    bool      `json:"cached"`
		Pairs     []refPair `json:"pairs"`
		Metrics   *struct {
			Precision float64 `json:"precision"`
			Recall    float64 `json:"recall"`
			F1        float64 `json:"f1"`
		} `json:"metrics"`
	} `json:"results"`
}

// resultKey identifies one matching: graph, algorithm, threshold.
type resultKey struct {
	graph int
	alg   string
	t     float64
}

func runMatch(o options, m *meter) error {
	l := m.layers
	var srv *serve.Server
	var lb *loopback
	var graphs []*matchGraph
	cl := newClient()
	defer cl.close()
	closeServer := func() {
		if lb != nil {
			lb.close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = srv.Close(ctx)
			cancel()
			srv, lb, graphs = nil, nil, nil
		}
	}
	err := m.timeSetup(func() error {
		var err error
		srv, lb, graphs, err = setupMatch(cl, l, o.trace)
		return err
	}, closeServer)
	defer closeServer()
	if err != nil {
		return err
	}
	for _, g := range graphs {
		if g.ref, err = newRefGraph(g.g.N1(), g.g.N2(), g.g.Edges()); err != nil {
			m.problem("match graph %s: %v", g.name, err)
		}
	}
	if o.trace {
		for _, g := range graphs {
			start := time.Now()
			warmIndex(g.g)
			l.since("graph.index", start)
		}
	}
	reqs := matchRound(o.seed, graphs)
	fmt.Fprintf(os.Stderr, "perfbench: match: %d graphs, %d requests a round\n", len(graphs), len(reqs))

	ck := &matchChecker{graphs: graphs, optimum: map[[2]float64]float64{}, first: map[string]verdict{}}
	var nextOp atomic.Int64
	err = m.runRounds(func(round int, traced bool) (roundStats, error) {
		replies := make([]reply, len(reqs))
		ops := make([]int64, len(reqs))
		wall, cpu, err := m.timed(func() error {
			if traced {
				l.on.Store(true)
				defer l.on.Store(false)
				defer l.runtimeRound()()
			}
			return parallel(len(reqs), func(i int) error {
				if traced {
					ops[i] = nextOp.Add(1)
				}
				var err error
				replies[i], err = cl.do(http.MethodPost, lb.url+"/v1/match", "application/json", reqs[i].body, ops[i])
				return err
			})
		})
		if err != nil {
			return roundStats{}, err
		}
		st := roundStats{wall: wall, cpu: cpu, ops: make([]time.Duration, len(reqs))}
		for i, r := range replies {
			st.ops[i] = r.rtt
			if !ck.check(m, reqs[i], r) {
				st.failed++
			}
		}
		if traced {
			tracedMatchRound(l, graphs, reqs, replies, ops)
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: match: %d of %d HUN requests below the optimum in each round, %d (graph, threshold) optima\n",
		ck.hunShort, len(hunThresholds)*hunGraphs(graphs), len(ck.optimum))
	if o.trace {
		values := map[string]float64{
			"datagen.tasks_ms":  l.mean("datagen.tasks"),
			"graph.index_ms":    l.sum["graph.index"],
			"eval.evaluate_ms":  l.perRound("eval.evaluate"),
			"serve.hit_ms":      l.mean("serve.hit"),
			"serve.miss_ms":     l.mean("serve.miss"),
			"serve.response_kb": l.mean("serve.response_kb"),
			"http.client_ms":    l.mean("http.client"),
		}
		if n := l.sum["serve.cached"] + l.sum["serve.computed"]; n > 0 {
			values["serve.hit_ratio"] = l.sum["serve.cached"] / n
		}
		coreValues(l, values)
		l.finish(m, values)
	}
	return nil
}

// setupMatch starts a server, has it generate the served graphs, and
// downloads them with the ground truth of their tasks.
func setupMatch(cl *client, l *layers, trace bool) (*serve.Server, *loopback, []*matchGraph, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, nil, nil, err
	}
	var h http.Handler = srv.Handler()
	if trace {
		h = l.handler("serve", h)
	}
	lb, err := listen(h)
	if err != nil {
		return nil, nil, nil, err
	}
	var graphs []*matchGraph
	start := time.Now()
	gts := map[string]*dataset.GroundTruth{}
	for _, f := range matchFamilies {
		spec, err := datagen.SpecByID(f.dataset)
		if err != nil {
			return nil, nil, nil, err
		}
		gts[f.dataset] = spec.Generate(matchDataSeed, matchScale).GT
	}
	l.since("datagen.tasks", start)
	for fi, f := range matchFamilies {
		body, _ := json.Marshal(map[string]any{
			"name": f.dataset + "-" + string(f.family), "dataset": f.dataset,
			"seed": matchDataSeed, "scale": matchScale, "family": string(f.family),
		})
		out, err := cl.expect(http.StatusCreated, http.MethodPost, lb.url+"/v1/graphs", "application/json", body)
		if err != nil {
			return nil, nil, nil, err
		}
		var created struct {
			Graphs []struct {
				Name     string `json:"name"`
				Version  int64  `json:"version"`
				Checksum string `json:"checksum"`
			} `json:"graphs"`
		}
		if err := json.Unmarshal(out, &created); err != nil {
			return nil, nil, nil, err
		}
		for _, info := range created.Graphs {
			text, err := cl.expect(http.StatusOK, http.MethodGet, lb.url+"/v1/graphs/"+info.Name+"?format=edgelist", "", nil)
			if err != nil {
				return nil, nil, nil, err
			}
			g, err := graph.ReadEdgeList(bytes.NewReader(text))
			if err != nil {
				return nil, nil, nil, err
			}
			if sum := fmt.Sprintf("%016x", g.Checksum()); sum != info.Checksum {
				return nil, nil, nil, fmt.Errorf("graph %s: downloaded checksum %s, server reported %s", info.Name, sum, info.Checksum)
			}
			graphs = append(graphs, &matchGraph{name: info.Name, g: g, task: gts[f.dataset],
				gt: gtSet(gts[f.dataset]), version: info.Version, family: fi, hun: f.hun})
		}
	}
	return srv, lb, graphs, nil
}

func hunGraphs(graphs []*matchGraph) int {
	n := 0
	for _, g := range graphs {
		if g.hun {
			n++
		}
	}
	return n
}

// matchRound builds the round's request list; seed draws its order.
func matchRound(seed int64, graphs []*matchGraph) []matchReq {
	used := map[resultKey]bool{}
	var reqs []matchReq
	add := func(g int, alg string, t float64, repeats int) {
		for i := 0; i < repeats; i++ {
			reqs = append(reqs, matchReq{graph: g, alg: alg, t: t})
		}
	}
	for gi, g := range graphs {
		if !g.hun {
			continue
		}
		for _, t := range hunThresholds {
			used[resultKey{gi, "HUN", t}] = true
			add(gi, "HUN", t, 1)
		}
	}
	// Every seed sends the same keys, in its own order: the i-th key of
	// each kind goes to family i mod len(matchFamilies), a family's keys
	// of one kind cycle through its graphs and the eight algorithms, and
	// they take the midpoints of equal slices of the threshold grid. The
	// cost of a matching depends mostly on graph, algorithm and threshold,
	// and the few heaviest requests set op_p99_ms, so drawing them per
	// seed would move p99 with the seed rather than with the program.
	byFamily := make([][]int, len(matchFamilies))
	for gi, g := range graphs {
		byFamily[g.family] = append(byFamily[g.family], gi)
	}
	names := core.Names()
	const grid = 19 // thresholds 0.05 .. 0.95
	for _, c := range []struct {
		n, repeats int
		batch      bool
	}{{hotSingles, hotSingleRepeats, false}, {coldSingles, 1, false}, {hotBatches, hotBatchRepeats, true}, {coldBatches, 1, true}} {
		perFamily := (c.n + len(byFamily) - 1) / len(byFamily)
		for i := 0; i < c.n; i++ {
			fam, j := byFamily[i%len(byFamily)], i/len(byFamily)
			step := int((float64(j)+0.5)*grid/float64(perFamily)) % grid
			// Shift graph, then algorithm, then threshold until the key
			// is free; the family has far more keys than a round uses.
			for shift := 0; ; shift++ {
				g := fam[(j+shift)%len(fam)]
				alg := names[(j+shift/len(fam))%len(names)]
				t := math.Round(float64(1+(step+shift/(len(fam)*len(names)))%grid)*5) / 100
				algs := []string{alg}
				if c.batch {
					algs, alg = names, ""
				}
				free := true
				for _, a := range algs {
					free = free && !used[resultKey{g, a, t}]
				}
				if free {
					for _, a := range algs {
						used[resultKey{g, a, t}] = true
					}
					add(g, alg, t, c.repeats)
					break
				}
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	for i := range reqs {
		body := map[string]any{"graph": graphs[reqs[i].graph].name, "threshold": reqs[i].t}
		if reqs[i].alg != "" {
			body["algorithms"] = []string{reqs[i].alg}
		}
		reqs[i].body, _ = json.Marshal(body)
	}
	return reqs
}

// matchChecker checks replies against the reference. The first reply to
// each distinct request is checked in full; every later reply to it must
// be the same bytes apart from the results' cached flags, and inherits
// the verdict.
type matchChecker struct {
	graphs   []*matchGraph
	optimum  map[[2]float64]float64 // (graph, t) -> exact optimum
	first    map[string]verdict     // request body -> first reply
	hunShort int                    // HUN requests below the optimum
}

type verdict struct {
	sum uint64 // FNV-1a of the reply with every cached flag false
	ok  bool
}

// check reports whether the op succeeded. A HUN result below the
// optimum fails its op; anything else wrong is a failed check too.
func (ck *matchChecker) check(m *meter, q matchReq, r reply) bool {
	if r.status != http.StatusOK {
		m.problem("match %s: status %d: %.200s", q.body, r.status, r.body)
		return false
	}
	h := fnv.New64a()
	h.Write(bytes.ReplaceAll(r.body, cachedTrue, cachedFalse))
	sum := h.Sum64()
	if v, seen := ck.first[string(q.body)]; seen {
		if v.sum != sum {
			m.problem("match %s: reply differs from the first reply to the same request", q.body)
			return false
		}
		return v.ok
	}
	ok := ck.checkReply(m, q, r)
	ck.first[string(q.body)] = verdict{sum, ok}
	return ok
}

func (ck *matchChecker) checkReply(m *meter, q matchReq, r reply) bool {
	g := ck.graphs[q.graph]
	var rep matchReply
	if err := json.Unmarshal(r.body, &rep); err != nil {
		m.problem("match %s: %v", q.body, err)
		return false
	}
	want := []string{q.alg}
	if q.alg == "" {
		want = core.Names()
	}
	if rep.Graph != g.name || rep.Version != g.version || rep.Threshold != q.t || len(rep.Results) != len(want) {
		m.problem("match %s: reply for %s v%d t=%v with %d results", q.body, rep.Graph, rep.Version, rep.Threshold, len(rep.Results))
		return false
	}
	ok := true
	for i, res := range rep.Results {
		if res.Algorithm != want[i] || res.Metrics == nil {
			m.problem("match %s: result %d is %s, metrics %v", q.body, i, res.Algorithm, res.Metrics)
			return false
		}
		if err := checkMatching(g.ref, res.Pairs, q.t); err != nil {
			m.problem("match %s %s t=%v: %v", g.name, res.Algorithm, q.t, err)
			ok = false
			continue
		}
		got := scorePairs(res.Pairs, g.gt)
		if !got.near(prf{res.Metrics.Precision, res.Metrics.Recall, res.Metrics.F1}) {
			m.problem("match %s %s t=%v: reply scores %+v, ground truth gives %+v", g.name, res.Algorithm, q.t, *res.Metrics, got)
			ok = false
		}
		key := [2]float64{float64(q.graph), q.t}
		opt, known := ck.optimum[key]
		if !known {
			opt = maxWeight(g.g.N1(), g.g.N2(), g.g.Edges(), q.t)
			ck.optimum[key] = opt
		}
		switch w := totalWeight(res.Pairs); {
		case w > opt+weightSlack(opt):
			m.problem("match %s %s t=%v: weight %v exceeds the optimum %v", g.name, res.Algorithm, q.t, w, opt)
			ok = false
		case res.Algorithm == "HUN" && w < opt-weightSlack(opt):
			ck.hunShort++
			ok = false
		}
	}
	return ok
}

// tracedMatchRound turns a traced round's spans into per-layer figures,
// and calls the matchers and eval.Evaluate directly on every matching
// the server computed (rather than served from its cache).
func tracedMatchRound(l *layers, graphs []*matchGraph, reqs []matchReq, replies []reply, ops []int64) {
	l.mu.Lock()
	byOp := make(map[int64]span, len(l.spans))
	for _, sp := range l.spans {
		byOp[sp.op] = sp
	}
	l.spans = l.spans[:0]
	l.mu.Unlock()
	for i, r := range replies {
		sp, ok := byOp[ops[i]]
		if !ok {
			continue
		}
		handler := sp.end.Sub(sp.start)
		l.add("http.client", ms(r.rtt-handler))
		l.add("serve.response_kb", float64(sp.bytes)/1024)
		l.add("serve.cached", float64(sp.hits))
		l.add("serve.computed", float64(sp.miss))
		if sp.miss == 0 {
			l.add("serve.hit", ms(handler))
		} else {
			l.add("serve.miss", ms(handler))
		}
		if sp.miss == 0 {
			continue
		}
		var rep matchReply
		if json.Unmarshal(r.body, &rep) != nil {
			continue
		}
		g := graphs[reqs[i].graph]
		for _, res := range rep.Results {
			if res.Cached {
				continue
			}
			mt := core.ByName(res.Algorithm, 1)
			start := time.Now()
			pairs := mt.Match(g.g, reqs[i].t)
			l.since("core."+res.Algorithm, start)
			start = time.Now()
			eval.Evaluate(pairs, g.task)
			l.since("eval.evaluate", start)
		}
	}
}
