// Command perfbench is the strata serve benchmark. It generates a
// population and queries from a workload seed, hosts the daemon in-process
// on a loopback listener through serve.NewServer, drives it from the same
// process, checks every answer, and prints the workload's metrics; the last
// line of its output is one JSON object.
//
//	perfbench --workload campaign-1e6 --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the same
// workload untraced and then traced, times direct calls into the layers the
// serving path does not separate, and prints the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/serve"
)

// nproc is the number of client connections and tcp workers.
var nproc = runtime.NumCPU()

// setupRepeats is how many times a run sets the daemon up; setup_s is the
// median. Each repeat warms up with (and in live mode subscribes) different
// queries, so that setup_s is a median over queries, not one query's cost.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner holds one run's workload, inputs and (traced run only) recorder.
type runner struct {
	w       *workload
	in      *inputs
	seed    int64
	seconds time.Duration
	rec     *recorder
	notes   []string // traced run: lines printed after the per-layer table
}

func main() {
	name := flag.String("workload", "", "workload: campaign-1e6, adhoc-tcp-1e5 or live-churn-1e5")
	seed := flag.Int64("seed", 1, "workload seed: population, queries, sampling seeds and mutations")
	seconds := flag.Int("seconds", 10, "length of each measured phase")
	trace := flag.Int("trace", 0, "1: measure the per-layer metrics in a traced run")
	out := flag.String("out", ".bench_build", "directory for the traced run's span file")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds time.Duration, traced bool, out string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	t0 := time.Now()
	in, err := genInputs(w, seed, seconds)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	fmt.Printf("%s seed %d: population %d generated in %.1fs (GOMAXPROCS %d, %d client connections)\n",
		w.name, seed, in.pop.Len(), time.Since(t0).Seconds(), runtime.GOMAXPROCS(0), nproc)
	r := &runner{w: w, in: in, seed: seed, seconds: seconds}
	var res *result
	if traced {
		res, err = r.tracedRun(out)
	} else {
		res, err = r.untracedRun()
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// genInputs makes the run's inputs from the workload seed.
func genInputs(w *workload, seed int64, seconds time.Duration) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{pop: gen.Population(w.pop, rng.Int63())}
	in.seeds = &seedStream{rng: rand.New(rand.NewSource(rng.Int63()))}
	var err error
	if in.check, err = newChecker(in.pop); err != nil {
		return nil, err
	}
	if err := w.gen(in, rng); err != nil {
		return nil, err
	}
	if w.live {
		// Enough batches for one measured phase, tracking the stratum sizes
		// of every query the reader sends.
		in.log = newMutationLog(in.pop, append(append([]*querySpec(nil), in.standing[0]...), in.adhoc...),
			int(seconds.Seconds()+1)*liveRate, rng)
		in.check.pop = nil
	}
	return in, nil
}

// measured is one untraced measured phase with its process counters.
type measured struct {
	ph       *phase
	d        *daemon
	setups   []float64
	peakRSS  float64
	heapPeak float64
	p0, p1   procSample
	s0, s1   serve.Snapshot // daemon counters around the phase
}

// measure sets the daemon up (repeats times, keeping the last), resets the
// process counters, and runs one measured phase.
func (r *runner) measure(repeats int, traced bool) (*measured, error) {
	m := &measured{}
	// Count down so that the measured daemon is variant 0.
	for i := repeats - 1; i >= 0; i-- {
		if m.d != nil {
			m.d.stop()
			m.d = nil
		}
		runtime.GC()
		d, err := startDaemon(r.w, r.in, r.seed, i, r.rec, traced)
		if err != nil {
			return nil, err
		}
		m.d = d
		m.setups = append(m.setups, d.setup.Seconds())
	}
	if r.w.live {
		snap, err := m.d.stats()
		if err != nil || snap.Live == nil {
			m.d.stop()
			return nil, fmt.Errorf("reading the staleness bound: %v", err)
		}
		r.in.check.staleness = snap.Live.StalenessBound
	}
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		m.d.stop()
		return nil, fmt.Errorf("resetting the peak RSS mark: %w", err)
	}
	var err error
	if m.s0, err = m.d.stats(); err != nil {
		m.d.stop()
		return nil, err
	}
	m.p0 = readProc()
	hs := startHeapSampler()
	m.ph = r.w.drive(r, m.d, time.Now().Add(r.seconds))
	m.heapPeak = hs.finish()
	m.p1 = readProc()
	if m.s1, err = m.d.stats(); err != nil {
		m.d.stop()
		return nil, err
	}
	if m.peakRSS, err = peakRSSMB(); err != nil {
		m.d.stop()
		return nil, err
	}
	return m, nil
}

// stealPct is the share of the machine's CPU time the hypervisor stole
// during the phase.
func (m *measured) stealPct() float64 {
	return 100 * (m.p1.steal - m.p0.steal) / max(m.p1.ticks-m.p0.ticks, 1)
}

// untracedRun measures the end-to-end metrics.
func (r *runner) untracedRun() (*result, error) {
	m, err := r.measure(setupRepeats, false)
	if err != nil {
		return nil, err
	}
	m.d.stop()
	ph := m.ph
	e2e := []struct {
		name  string
		value float64
		unit  string
	}{
		{"setup_s", median(m.setups), "s"},
		{"queries_per_s", ph.rate, "1/s"},
		{"sample_p50_ms", quantile(ph.sample, 0.5), "ms"},
		{"sample_p90_ms", quantile(ph.sample, 0.9), "ms"},
		{"round_p50_ms", quantile(ph.round, 0.5), "ms"},
		{"round_p90_ms", quantile(ph.round, 0.9), "ms"},
		{"read_p50_ms", quantile(ph.read, 0.5), "ms"},
		{"read_p90_ms", quantile(ph.read, 0.9), "ms"},
		{"peak_rss_mb", m.peakRSS, "MB"},
	}
	res := &result{Metrics: map[string]metric{}}
	for _, e := range e2e {
		res.Metrics[e.name] = metric{e.value, e.unit}
		fmt.Printf("  %-18s %12.4f %s\n", e.name, e.value, e.unit)
	}
	r.printPhase(ph, m.setups)
	fmt.Printf("  daemon: %d passes for %d queries, batch occupancy mean %.2f; host CPU steal %.1f%%\n",
		m.s1.Passes-m.s0.Passes, m.s1.Queries-m.s0.Queries, m.s1.BatchMean, m.stealPct())
	res.Attempted, res.Failed = ph.attempted, ph.failed
	res.Correct = ph.failed == 0 && ph.answers > 0
	return res, nil
}

// printPhase prints the workload's own names for its numbers, the sample
// counts behind every percentile, and the error rate.
func (r *runner) printPhase(ph *phase, setups []float64) {
	fmt.Printf("  samples: sample %d, round %d, read %d; setups %s s\n",
		len(ph.sample), len(ph.round), len(ph.read), fmtList(setups))
	switch {
	case r.w.live:
		fmt.Printf("  fresh_read_p50_ms %.4f ms, fresh_read_p90_ms %.4f ms (warm reads: %d sent, %d warm)\n",
			quantile(ph.read, 0.5), quantile(ph.read, 0.9), ph.warmSent, ph.warmHit)
		fmt.Printf("  mutate_p50_ms %.4f ms, mutate_p90_ms %.4f ms; feed late p90 %.4f ms at %d batches/s of %d ops\n",
			quantile(ph.round, 0.5), quantile(ph.round, 0.9), quantile(ph.late, 0.9), liveRate, batchOps)
	case r.w.name == "campaign-1e6":
		fmt.Printf("  campaign_p50_ms %.4f ms; poll interval %v, %.2f polls per query\n",
			quantile(ph.round, 0.5), pollInterval, float64(ph.polls)/float64(max(ph.collected, 1)))
	}
	fmt.Printf("  error_rate %.6f fraction (%d of %d operations)\n",
		float64(ph.failed)/float64(max(ph.attempted, 1)), ph.failed, ph.attempted)
	if ph.firstErr != nil {
		fmt.Printf("  first error: %v\n", ph.firstErr)
	}
}

func fmtList(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}

// quantile is the p-quantile of v by linear interpolation; 0 for no data.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	x := p * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// traceFile is where the traced run writes its spans.
func traceFile(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
}
