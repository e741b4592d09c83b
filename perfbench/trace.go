package main

// Tracing for the traced run. Every span and counter is recorded by the
// benchmark's own code around its calls into the program: HTTP handler
// wrappers, a transport that tags the router's backend requests with the
// operation that caused them, and a filesystem wrapper under the durable
// store. Spans stay in memory until the run ends. The wrappers are
// switched on only for traced rounds; in untraced rounds they pass
// straight through.

import (
	"bytes"
	"context"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ccer-go/ccer/internal/durable"
)

// perLayerUnits lists every per-layer metric and its unit. A traced run
// prints all of them; a layer the workload bypasses reads 0.
var perLayerUnits = map[string]string{
	"datagen.tasks_ms":            "ms",
	"simgraph.SB-SYN_ms":          "ms",
	"simgraph.SA-SYN_ms":          "ms",
	"simgraph.SB-SEM_ms":          "ms",
	"simgraph.SA-SEM_ms":          "ms",
	"simgraph.pairs_visited":      "count",
	"simgraph.pairs_skipped":      "count",
	"simgraph.edges":              "count",
	"graph.index_ms":              "ms",
	"graph.decode_ms":             "ms",
	"graph.checksum_ms":           "ms",
	"eval.evaluate_ms":            "ms",
	"serve.hit_ms":                "ms",
	"serve.miss_ms":               "ms",
	"serve.hit_ratio":             "ratio",
	"serve.response_kb":           "KB",
	"http.client_ms":              "ms",
	"cluster.router_self_ms":      "ms",
	"cluster.backend_reqs_per_op": "count",
	"durable.syncs_per_write":     "count",
	"durable.sync_ms":             "ms",
	"durable.write_kb_per_write":  "KB",
	"go.alloc_mb":                 "MB",
	"go.gc_cpu_ms":                "ms",
	"trace.overhead_pct":          "%",
	"core.CNC_ms":                 "ms",
	"core.RSR_ms":                 "ms",
	"core.RCA_ms":                 "ms",
	"core.BAH_ms":                 "ms",
	"core.BMC_ms":                 "ms",
	"core.EXC_ms":                 "ms",
	"core.KRC_ms":                 "ms",
	"core.UMC_ms":                 "ms",
	"core.HUN_ms":                 "ms",
	"core.CNC_calls":              "count",
	"core.RSR_calls":              "count",
	"core.RCA_calls":              "count",
	"core.BAH_calls":              "count",
	"core.BMC_calls":              "count",
	"core.EXC_calls":              "count",
	"core.KRC_calls":              "count",
	"core.UMC_calls":              "count",
	"core.HUN_calls":              "count",
}

// opHeader carries the benchmark's operation id on every request it
// sends, and on every backend request the router sends on its behalf.
const opHeader = "X-Bench-Op"

type opKey struct{}

// span is one recorded interval at a layer boundary.
type span struct {
	kind       string // "serve", "router" or "backend"
	route      string
	op         int64 // 0 when the request came from no benchmark op
	start, end time.Time
	hits, miss int   // cached flags in a match response
	bytes      int64 // response body size
}

// layers accumulates the traced rounds' figures.
type layers struct {
	on     atomic.Bool
	mu     sync.Mutex
	rounds int
	sum    map[string]float64
	n      map[string]float64
	spans  []span
}

func newLayers() *layers {
	return &layers{sum: map[string]float64{}, n: map[string]float64{}}
}

// add accumulates v under name and counts one observation.
func (l *layers) add(name string, v float64) {
	l.mu.Lock()
	l.sum[name] += v
	l.n[name]++
	l.mu.Unlock()
}

// since adds the milliseconds elapsed since start under name.
func (l *layers) since(name string, start time.Time) {
	l.add(name, ms(time.Since(start)))
}

// perRound is a sum divided by the number of traced rounds.
func (l *layers) perRound(name string) float64 {
	if l.rounds == 0 {
		return 0
	}
	return l.sum[name] / float64(l.rounds)
}

// mean is a sum divided by its number of observations.
func (l *layers) mean(name string) float64 {
	if l.n[name] == 0 {
		return 0
	}
	return l.sum[name] / l.n[name]
}

// runtimeRound brackets one traced round with runtime/metrics reads.
func (l *layers) runtimeRound() (done func()) {
	a0, g0 := goRuntime()
	return func() {
		a1, g1 := goRuntime()
		l.add("go.alloc_mb", (a1-a0)/1e6)
		l.add("go.gc_cpu_ms", (g1-g0)*1e3)
	}
}

// finish fills m.perLayer with every per-layer metric: the values the
// workload measured, and 0 for layers it bypasses.
func (l *layers) finish(m *meter, values map[string]float64) {
	values["go.alloc_mb"] = l.perRound("go.alloc_mb")
	values["go.gc_cpu_ms"] = l.perRound("go.gc_cpu_ms")
	values["trace.overhead_pct"] = m.tracingOverheadPct()
	m.perLayer = map[string]metric{}
	for name, unit := range perLayerUnits {
		m.perLayer[name] = metric{values[name], unit}
	}
}

// handler wraps h with a span per request while tracing is on. The op id
// comes from opHeader and is put in the request context, where the
// traced transport finds it again for requests h makes downstream.
func (l *layers) handler(kind string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		r = r.WithContext(context.WithValue(r.Context(), opKey{}, op))
		rec := &bodyRecorder{ResponseWriter: w, match: r.URL.Path == "/v1/match"}
		start := time.Now()
		h.ServeHTTP(rec, r)
		sp := span{kind: kind, route: r.Method + " " + r.URL.Path, op: op, start: start, end: time.Now(),
			hits: rec.hits, miss: rec.miss, bytes: rec.bytes}
		l.mu.Lock()
		l.spans = append(l.spans, sp)
		l.mu.Unlock()
	})
}

// bodyRecorder counts response bytes and, on match responses, the
// results' cached flags.
type bodyRecorder struct {
	http.ResponseWriter
	match      bool
	bytes      int64
	hits, miss int
}

var (
	cachedTrue  = []byte(`"cached": true`)
	cachedFalse = []byte(`"cached": false`)
)

func (b *bodyRecorder) Write(p []byte) (int, error) {
	b.bytes += int64(len(p))
	if b.match {
		b.hits += bytes.Count(p, cachedTrue)
		b.miss += bytes.Count(p, cachedFalse)
	}
	return b.ResponseWriter.Write(p)
}

// opTransport tags outgoing requests with the op id of the request
// context they were made under.
type opTransport struct{ inner http.RoundTripper }

func (t opTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if op, ok := r.Context().Value(opKey{}).(int64); ok && op != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	return t.inner.RoundTrip(r)
}

// tracedFS times and counts the durable store's file syncs and writes
// while tracing is on.
type tracedFS struct {
	durable.OSFS
	l *layers
}

var _ durable.FS = tracedFS{}

func (f tracedFS) Create(path string) (durable.File, error) {
	return f.wrap(f.OSFS.Create(path))
}

func (f tracedFS) Append(path string) (durable.File, error) {
	return f.wrap(f.OSFS.Append(path))
}

func (f tracedFS) wrap(file durable.File, err error) (durable.File, error) {
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, l: f.l}, nil
}

func (f tracedFS) SyncDir(path string) error {
	start := time.Now()
	err := f.OSFS.SyncDir(path)
	if f.l.on.Load() {
		f.l.since("durable.sync", start)
	}
	return err
}

type tracedFile struct {
	durable.File
	l *layers
}

func (f tracedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.l.on.Load() {
		f.l.add("durable.write_bytes", float64(n))
	}
	return n, err
}

func (f tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	if f.l.on.Load() {
		f.l.since("durable.sync", start)
	}
	return err
}

// union is the total length of the union of intervals clipped to
// [lo, hi].
func union(lo, hi time.Time, ivs [][2]time.Time) time.Duration {
	clipped := make([][2]time.Time, 0, len(ivs))
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s.Before(lo) {
			s = lo
		}
		if e.After(hi) {
			e = hi
		}
		if e.After(s) {
			clipped = append(clipped, [2]time.Time{s, e})
		}
	}
	slices.SortFunc(clipped, func(a, b [2]time.Time) int { return a[0].Compare(b[0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv[0].After(cur[1]):
			if iv[1].After(cur[1]) {
				cur[1] = iv[1]
			}
		default:
			total += cur[1].Sub(cur[0])
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return total
}
