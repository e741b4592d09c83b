package main

// The ingest workload: writes beside reads, through the router. One
// in-process cluster router with two replicas sits over two durable
// erserve backends, each with its own data directory. Each round two
// closed-loop clients run one op per named graph: upload a new version
// of the name (an edge-list POST the router fans out to both journals),
// then match that version with the eight algorithms through the router.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/ccer-go/ccer/internal/cluster"
	"github.com/ccer-go/ccer/internal/datagen"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/serve"
	"github.com/ccer-go/ccer/internal/simgraph"
)

const (
	ingestScale   = 0.01
	ingestDataset = "D7"
	ingestFamily  = simgraph.SASem
	ingestNames   = 16
	// dataRoot holds the backends' data directories, inside the
	// checkout's build directory.
	dataRoot = ".bench_build"
)

// poolGraph is one uploadable graph: its edges and its edge list split
// before the last edge's weight, so each version can carry a distinct
// last weight and hence distinct content.
type poolGraph struct {
	n1, n2 int
	edges  []graph.Edge
	prefix []byte // everything up to and including "u v " of the last edge
}

// version is one acknowledged upload: name i's k-th version, pool graph
// p with the last edge's weight set to w.
type version struct {
	pool int
	w    float64
}

func (p *poolGraph) body(w float64) []byte {
	b := make([]byte, 0, len(p.prefix)+24)
	b = append(b, p.prefix...)
	b = strconv.AppendFloat(b, w, 'g', -1, 64)
	return append(b, '\n')
}

func (p *poolGraph) versionEdges(w float64) []graph.Edge {
	es := slices.Clone(p.edges)
	es[len(es)-1].W = w
	return es
}

// ingestCluster is the router, its two backends and their directories.
type ingestCluster struct {
	dirs     []string
	servers  []*serve.Server
	backends []*loopback
	rt       *cluster.Router
	router   *loopback
}

func runIngest(o options, m *meter) error {
	l := m.layers
	// The router's backend requests go through http.DefaultClient; a
	// traced run tags them with the op that caused them.
	orig := http.DefaultTransport
	defer func() {
		http.DefaultTransport = orig
		if t, ok := orig.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	}()
	if o.trace {
		http.DefaultTransport = opTransport{orig}
	}
	var pool []*poolGraph
	var c *ingestCluster
	rep := 0
	release := func() {
		if c != nil {
			c.close()
			for _, d := range c.dirs {
				os.RemoveAll(d)
			}
			c = nil
		}
	}
	defer release()
	err := m.timeSetup(func() error {
		var err error
		if pool, err = ingestPool(o.seed); err != nil {
			return err
		}
		rep++
		c, err = startCluster(l, o.trace, rep)
		return err
	}, release)
	if err != nil {
		return err
	}
	cl := newClient()
	defer cl.close()

	last := make([]version, ingestNames) // last acknowledged version per name
	var nextOp atomic.Int64
	err = m.runRounds(func(round int, traced bool) (roundStats, error) {
		k := int64(round + 1) // every name's version in this round
		rng := rand.New(rand.NewSource(o.seed*1_000_003 + int64(round)))
		order := rng.Perm(ingestNames)
		type op struct {
			name    int
			v       version
			t       float64
			id      int64
			upload  reply
			match   reply
			latency time.Duration
		}
		ops := make([]op, ingestNames)
		for j, i := range order {
			ops[j] = op{name: i, v: version{pool: (i + round) % len(pool), w: 0.25 + float64(i*1_000_000+round)*1e-9},
				t: float64(5+rng.Intn(11)) * 0.05}
		}
		wall, cpu, err := m.timed(func() error {
			if traced {
				l.on.Store(true)
				defer l.on.Store(false)
				defer l.runtimeRound()()
			}
			return parallel(len(ops), func(j int) error {
				p := &ops[j]
				if traced {
					p.id = nextOp.Add(1)
				}
				name := ingestName(p.name)
				start := time.Now()
				var err error
				p.upload, err = cl.do(http.MethodPost, c.router.url+"/v1/graphs?name="+name, "text/plain",
					pool[p.v.pool].body(p.v.w), p.id)
				if err != nil {
					return err
				}
				body, _ := json.Marshal(map[string]any{"graph": name, "threshold": p.t})
				p.match, err = cl.do(http.MethodPost, c.router.url+"/v1/match", "application/json", body, p.id)
				p.latency = time.Since(start)
				return err
			})
		})
		if err != nil {
			return roundStats{}, err
		}
		st := roundStats{wall: wall, cpu: cpu}
		for _, p := range ops {
			st.ops = append(st.ops, p.latency)
			if !checkIngestOp(m, pool, p.name, k, p.v, p.t, p.upload, p.match) {
				st.failed++
				continue
			}
			last[p.name] = p.v
		}
		if traced {
			ids := make([]int64, len(ops))
			bodies := make([][]byte, len(ops))
			rtts := make([]time.Duration, 0, 2*len(ops))
			for j, p := range ops {
				ids[j], bodies[j] = p.id, pool[p.v.pool].body(p.v.w)
				rtts = append(rtts, p.upload.rtt, p.match.rtt)
			}
			tracedIngestRound(l, ids, bodies, rtts)
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	rounds := int64(len(m.rounds) + len(m.traced))
	checkReplicas(m, cl, c, pool, last, rounds)
	dirs := c.dirs
	c.close()
	c.dirs = nil
	for _, d := range dirs {
		checkRecovery(m, d, pool, last, rounds)
		os.RemoveAll(d)
	}
	if o.trace {
		uploads := l.n["graph.decode"]
		values := map[string]float64{
			"graph.decode_ms":             l.mean("graph.decode"),
			"graph.checksum_ms":           l.mean("graph.checksum"),
			"graph.index_ms":              l.mean("graph.index"),
			"serve.hit_ms":                l.mean("serve.hit"),
			"serve.miss_ms":               l.mean("serve.miss"),
			"http.client_ms":              l.mean("http.client"),
			"cluster.router_self_ms":      l.mean("cluster.router_self"),
			"durable.sync_ms":             l.mean("durable.sync"),
			"cluster.backend_reqs_per_op": l.sum["cluster.backend_reqs"] / max(uploads, 1),
			"durable.syncs_per_write":     l.n["durable.sync"] / max(uploads, 1),
			"durable.write_kb_per_write":  l.sum["durable.write_bytes"] / 1024 / max(uploads, 1),
		}
		l.finish(m, values)
	}
	return nil
}

func ingestName(i int) string { return "ingest-" + strconv.Itoa(i) }

// ingestPool generates the uploadable graphs from the workload seed.
func ingestPool(seed int64) ([]*poolGraph, error) {
	spec, err := datagen.SpecByID(ingestDataset)
	if err != nil {
		return nil, err
	}
	task := spec.Generate(seed, ingestScale)
	var pool []*poolGraph
	for _, sg := range simgraph.Generate(task, spec.KeyAttrs, simgraph.Options{
		Families: []simgraph.Family{ingestFamily}, Parallelism: workers(),
	}) {
		es := sg.G.Edges()
		if len(es) == 0 {
			continue
		}
		var buf bytes.Buffer
		if err := sg.G.WriteEdgeList(&buf); err != nil {
			return nil, err
		}
		text := buf.Bytes()
		lastLine := bytes.LastIndexByte(text[:len(text)-1], '\n') + 1
		cut := lastLine + len(fmt.Sprintf("%d %d ", es[len(es)-1].U, es[len(es)-1].V))
		pool = append(pool, &poolGraph{n1: sg.G.N1(), n2: sg.G.N2(), edges: slices.Clone(es), prefix: slices.Clone(text[:cut])})
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("no %s graphs for %s", ingestFamily, ingestDataset)
	}
	return pool, nil
}

// startCluster starts two durable backends, each over a fresh data
// directory, and a router with two replicas over them.
func startCluster(l *layers, trace bool, rep int) (*ingestCluster, error) {
	c := &ingestCluster{}
	var urls []string
	for b := 0; b < 2; b++ {
		dir := filepath.Join(dataRoot, fmt.Sprintf("perfbench-ingest-%d-%d-%d", os.Getpid(), rep, b))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		c.dirs = append(c.dirs, dir)
		// RepCacheDatasets -1: these backends only store uploads and never
		// generate, so the generation layer's representation caches (about
		// 200 MB of live heap each) would only add GC work from a layer
		// this workload bypasses. The match workload keeps the default.
		cfg := serve.Config{DataDir: dir, RepCacheDatasets: -1}
		if trace {
			cfg.DataFS = tracedFS{l: l}
		}
		srv, err := serve.New(cfg)
		if err != nil {
			c.close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
		var h http.Handler = srv.Handler()
		if trace {
			h = l.handler("backend", h)
		}
		lb, err := listen(h)
		if err != nil {
			c.close()
			return nil, err
		}
		c.backends = append(c.backends, lb)
		urls = append(urls, lb.url)
	}
	// RepairInterval -1: the background anti-entropy scan can race an
	// in-flight fanned write, after which the replicas number the same
	// content differently and ops fail now and then (see CHANGES.md).
	// No backend fails in this workload, so there is nothing to repair.
	rt, err := cluster.NewRouter(cluster.RouterConfig{Backends: urls, Replicas: 2, RepairInterval: -1})
	if err != nil {
		c.close()
		return nil, err
	}
	c.rt = rt
	var h http.Handler = rt.Handler()
	if trace {
		h = l.handler("router", h)
	}
	if c.router, err = listen(h); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// close stops the router, then the backends; the data directories stay.
func (c *ingestCluster) close() {
	if c.router != nil {
		c.router.close()
	}
	if c.rt != nil {
		c.rt.Close()
	}
	for _, lb := range c.backends {
		lb.close()
	}
	for _, s := range c.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.Close(ctx)
		cancel()
	}
	c.router, c.rt, c.backends, c.servers = nil, nil, nil, nil
}

// checkIngestOp checks one op: the upload was acknowledged as the name's
// k-th version, and the match names that version and is a valid matching
// of its edges for each of the eight algorithms.
func checkIngestOp(m *meter, pool []*poolGraph, name int, k int64, v version, t float64, up, mt reply) bool {
	if up.status != http.StatusCreated {
		m.problem("ingest upload %s: status %d: %.200s", ingestName(name), up.status, up.body)
		return false
	}
	var info struct {
		Version int64 `json:"version"`
	}
	if err := json.Unmarshal(up.body, &info); err != nil || info.Version != k {
		m.problem("ingest upload %s: acknowledged version %d (%v), want %d", ingestName(name), info.Version, err, k)
		return false
	}
	if mt.status != http.StatusOK {
		m.problem("ingest match %s: status %d: %.200s", ingestName(name), mt.status, mt.body)
		return false
	}
	var rep matchReply
	if err := json.Unmarshal(mt.body, &rep); err != nil {
		m.problem("ingest match %s: %v", ingestName(name), err)
		return false
	}
	if rep.Version != k || rep.Threshold != t || len(rep.Results) != 8 {
		m.problem("ingest match %s: version %d t=%v with %d results, want version %d t=%v with 8",
			ingestName(name), rep.Version, rep.Threshold, len(rep.Results), k, t)
		return false
	}
	p := pool[v.pool]
	ref, err := newRefGraph(p.n1, p.n2, p.versionEdges(v.w))
	if err != nil {
		m.problem("ingest %s v%d: %v", ingestName(name), k, err)
		return false
	}
	ok := true
	for _, res := range rep.Results {
		if err := checkMatching(ref, res.Pairs, t); err != nil {
			m.problem("ingest match %s v%d %s t=%v: %v", ingestName(name), k, res.Algorithm, t, err)
			ok = false
		}
	}
	return ok
}

// sameEdges compares a decoded graph with the expected version edge for
// edge.
func sameEdges(g *graph.Bipartite, p *poolGraph, v version) error {
	want := p.versionEdges(v.w)
	got := g.Edges()
	if g.N1() != p.n1 || g.N2() != p.n2 || len(got) != len(want) {
		return fmt.Errorf("%dx%d with %d edges, want %dx%d with %d", g.N1(), g.N2(), len(got), p.n1, p.n2, len(want))
	}
	key := func(a, b graph.Edge) int {
		if a.U != b.U {
			return int(a.U - b.U)
		}
		return int(a.V - b.V)
	}
	got, want = slices.Clone(got), slices.Clone(want)
	slices.SortFunc(got, key)
	slices.SortFunc(want, key)
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("edge %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// checkReplicas downloads every name from each backend directly and
// compares it with the last acknowledged upload.
func checkReplicas(m *meter, cl *client, c *ingestCluster, pool []*poolGraph, last []version, rounds int64) {
	for b, lb := range c.backends {
		for i, v := range last {
			checkStored(m, fmt.Sprintf("backend %d", b), func(method, path string) ([]byte, error) {
				return cl.expect(http.StatusOK, method, lb.url+path, "", nil)
			}, ingestName(i), pool[v.pool], v, rounds)
		}
	}
}

// checkRecovery reopens a data directory with a fresh server and checks
// that it recovered exactly the last acknowledged version of every name.
func checkRecovery(m *meter, dir string, pool []*poolGraph, last []version, rounds int64) {
	srv, err := serve.New(serve.Config{DataDir: dir})
	if err != nil {
		m.problem("reopen %s: %v", dir, err)
		return
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = srv.Close(ctx)
		cancel()
	}()
	h := srv.Handler()
	get := func(method, path string) ([]byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("%s %s: status %d", method, path, rec.Code)
		}
		return rec.Body.Bytes(), nil
	}
	body, err := get(http.MethodGet, "/v1/graphs")
	if err != nil {
		m.problem("reopen %s: %v", dir, err)
		return
	}
	var list struct {
		Graphs []struct {
			Name string `json:"name"`
		} `json:"graphs"`
	}
	if err := json.Unmarshal(body, &list); err != nil || len(list.Graphs) != len(last) {
		m.problem("reopen %s: %d graphs listed (%v), want %d", dir, len(list.Graphs), err, len(last))
	}
	for i, v := range last {
		checkStored(m, "reopened "+dir, get, ingestName(i), pool[v.pool], v, rounds)
	}
}

// checkStored fetches a name's info and edge list through get and checks
// its version and content.
func checkStored(m *meter, where string, get func(method, path string) ([]byte, error), name string, p *poolGraph, v version, k int64) {
	body, err := get(http.MethodGet, "/v1/graphs/"+name)
	if err != nil {
		m.problem("%s %s: %v", where, name, err)
		return
	}
	var info struct {
		Version int64 `json:"version"`
	}
	if err := json.Unmarshal(body, &info); err != nil || info.Version != k {
		m.problem("%s %s: version %d (%v), want %d", where, name, info.Version, err, k)
	}
	text, err := get(http.MethodGet, "/v1/graphs/"+name+"?format=edgelist")
	if err != nil {
		m.problem("%s %s: %v", where, name, err)
		return
	}
	g, err := graph.ReadEdgeList(bytes.NewReader(text))
	if err == nil {
		err = sameEdges(g, p, v)
	}
	if err != nil {
		m.problem("%s %s: %v", where, name, err)
	}
}

// tracedIngestRound turns a traced round's spans into per-layer figures,
// and decodes, checksums and indexes each op's upload body through the
// graph package's public calls.
func tracedIngestRound(l *layers, ids []int64, bodies [][]byte, rtts []time.Duration) {
	l.mu.Lock()
	spans := l.spans
	l.spans = nil
	l.mu.Unlock()
	routerSpans := map[int64][]span{}
	backend := map[int64][][2]time.Time{}
	for _, sp := range spans {
		if sp.op == 0 {
			continue
		}
		switch sp.kind {
		case "router":
			routerSpans[sp.op] = append(routerSpans[sp.op], sp)
		case "backend":
			backend[sp.op] = append(backend[sp.op], [2]time.Time{sp.start, sp.end})
			l.add("cluster.backend_reqs", 1)
			if sp.route == "POST /v1/match" {
				if sp.miss == 0 && sp.hits > 0 {
					l.add("serve.hit", ms(sp.end.Sub(sp.start)))
				} else {
					l.add("serve.miss", ms(sp.end.Sub(sp.start)))
				}
			}
		}
	}
	var routerTime time.Duration
	for _, id := range ids {
		for _, sp := range routerSpans[id] {
			d := sp.end.Sub(sp.start)
			routerTime += d
			l.add("cluster.router_self", ms(d-union(sp.start, sp.end, backend[id])))
		}
	}
	var rtt time.Duration
	for _, d := range rtts {
		rtt += d
	}
	if len(rtts) > 0 {
		// Per client request: round trip minus the router's handler span.
		l.add("http.client", ms(rtt-routerTime)/float64(len(rtts)))
	}
	for _, b := range bodies {
		start := time.Now()
		g, err := graph.ReadEdgeList(bytes.NewReader(b))
		l.since("graph.decode", start)
		if err != nil {
			continue
		}
		start = time.Now()
		g.Checksum()
		l.since("graph.checksum", start)
		start = time.Now()
		warmIndex(g)
		l.since("graph.index", start)
	}
}
