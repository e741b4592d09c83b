// Command perfbench is the repository's benchmark. It runs one workload
// (study, match or ingest) in this process, checks the program's outputs
// against an independent reference, and prints one JSON line with the
// operations attempted and failed and either the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1).
//
//	bash perfbench/run.sh --workload match --seed 1 --seconds 25 --trace 0
//
// See README.md for the workloads, the metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: study, match or ingest")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 25, "seconds of measured rounds (whole rounds are always finished)")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	o.trace = trace == 1
	runners := map[string]func(options, *meter) error{
		"study":  runStudy,
		"match":  runMatch,
		"ingest": runIngest,
	}
	run, ok := runners[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload study|match|ingest, --trace 0|1 and --seconds > 0\n")
		os.Exit(2)
	}
	m := newMeter(o)
	if err := run(o, m); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	out, err := json.Marshal(m.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// meter collects what a run measures: set-up repetitions, rounds, the
// latency of every operation of the untraced rounds, process CPU spent in
// them, check failures, and the per-layer figures of the traced rounds.
type meter struct {
	o         options
	setups    []time.Duration
	rounds    []time.Duration // untraced rounds
	traced    []time.Duration // traced rounds
	ops       []time.Duration // latency of every op of the untraced rounds
	cpu       time.Duration   // process CPU over the untraced rounds
	peakRSS   float64         // MB, read after the last timed work
	attempted int64
	failed    int64
	problems  []string
	layers    *layers
	// gcBetweenRounds collects the previous round's garbage outside the
	// timed work, for workloads whose rounds rebuild all their state.
	gcBetweenRounds bool
	// perLayer is filled by the workload from m.layers once the traced
	// rounds are done.
	perLayer map[string]metric
}

func newMeter(o options) *meter {
	return &meter{o: o, layers: newLayers()}
}

// setupReps is how often a workload sets up; setup_s is the median.
const setupReps = 3

// timeSetup runs setup setupReps times and records each duration. Only
// the state of the last repetition is kept by the workload: release,
// when non-nil, drops the previous repetition's state before the next
// one is timed.
func (m *meter) timeSetup(setup func() error, release func()) error {
	for i := 0; i < setupReps; i++ {
		if i > 0 && release != nil {
			release()
		}
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return err
		}
		m.setups = append(m.setups, time.Since(start))
	}
	return nil
}

// problem records a failed output check; the run reports correct=false.
func (m *meter) problem(format string, args ...any) {
	const keep = 20
	if len(m.problems) < keep {
		msg := fmt.Sprintf(format, args...)
		m.problems = append(m.problems, msg)
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	if len(m.problems) == keep {
		m.problems = append(m.problems, "further failures not shown")
	}
}

// minOps is the fewest ops an untraced run reports on, so that op_p99_ms
// has at least ten samples beyond it; a slow run takes more rounds.
const minOps = 1000

// runRounds calls round until the rounds' timed work adds up to the
// measured time and minOps ops were run, finishing the round in
// progress. A
// traced run alternates untraced and traced rounds, starting untraced,
// and ends with at least one of each; its untraced rounds give the
// tracing overhead.
//
// round does the timed work itself (m.timed) and reports its wall time
// and ops; whatever it does after timing (output checks) is not
// measured.
func (m *meter) runRounds(round func(i int, traced bool) (roundStats, error)) error {
	budget := time.Duration(m.o.seconds * float64(time.Second))
	var spent time.Duration
	for i := 0; ; i++ {
		traced := m.o.trace && i%2 == 1
		if m.gcBetweenRounds {
			runtime.GC()
		}
		st, err := round(i, traced)
		if err != nil {
			return err
		}
		if traced {
			m.traced = append(m.traced, st.wall)
			m.layers.rounds++
		} else {
			m.rounds = append(m.rounds, st.wall)
			m.ops = append(m.ops, st.ops...)
			m.cpu += st.cpu
		}
		m.attempted += int64(len(st.ops))
		m.failed += st.failed
		spent += st.wall
		enough := len(m.ops) >= minOps || m.o.trace
		if spent >= budget && enough && (!m.o.trace || i >= 1) {
			break
		}
	}
	return nil
}

// roundStats is what one round measured.
type roundStats struct {
	wall   time.Duration
	cpu    time.Duration
	ops    []time.Duration
	failed int64
}

// timed runs f and returns its wall and process CPU time. The peak RSS
// is read when f returns, before the round's checks allocate.
func (m *meter) timed(f func() error) (wall, cpu time.Duration, err error) {
	c0 := processCPU()
	start := time.Now()
	err = f()
	wall, cpu = time.Since(start), processCPU()-c0
	m.peakRSS = peakRSSMB()
	return wall, cpu, err
}

func (m *meter) result() result {
	r := result{
		Correct:   len(m.problems) == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	if m.o.trace {
		r.Metrics = m.perLayer
		return r
	}
	lat := make([]float64, len(m.ops))
	for i, d := range m.ops {
		lat[i] = ms(d)
	}
	slices.Sort(lat)
	r.Metrics["setup_s"] = metric{median(seconds(m.setups)), "s"}
	r.Metrics["run_s"] = metric{median(seconds(m.rounds)), "s"}
	r.Metrics["op_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
	r.Metrics["op_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	r.Metrics["cpu_ms_per_op"] = metric{ms(m.cpu) / float64(max(len(m.ops), 1)), "ms"}
	r.Metrics["peak_rss_mb"] = metric{m.peakRSS, "MB"}
	rs := seconds(m.rounds)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops, %d failed; %d rounds, median %.4gs, min %.4gs, max %.4gs; setups %.4gs\n",
		m.o.workload, m.o.seed, len(m.ops), m.failed, len(rs), median(rs), slices.Min(rs), slices.Max(rs), seconds(m.setups))
	return r
}

// tracingOverheadPct compares the median traced and untraced round.
func (m *meter) tracingOverheadPct() float64 {
	u, t := median(seconds(m.rounds)), median(seconds(m.traced))
	if u == 0 {
		return 0
	}
	return 100 * (t - u) / u
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// goRuntime reads cumulative heap allocation (bytes) and GC CPU
// (seconds) from runtime/metrics.
func goRuntime() (allocBytes, gcCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[1].Value.Float64()
	}
	return allocBytes, gcCPU
}

// workers is the goroutine and client budget of every workload.
func workers() int { return min(runtime.NumCPU(), 2) }

// parallel runs f(0..n-1) on the worker budget, each worker taking the
// next index when it is done with one. After an error no new index is
// started; the first error is returned.
func parallel(n int, f func(i int) error) error {
	var next atomic.Int64
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					next.Store(int64(n))
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
