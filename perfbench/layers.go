package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/live"
	"repro/internal/mapreduce"
	"repro/internal/query"
	"repro/internal/sampling"
	"repro/internal/stratified"
	"repro/internal/worker"
)

// layerMetrics are the per-layer metrics every traced run prints, in order.
var layerMetrics = []struct{ name, unit string }{
	{"dataset.partition_s", "s"},
	{"serve.new_server_s", "s"},
	{"worker.join_s", "s"},
	{"live.register_ms_per_query", "ms"},
	{"query.classify_ns_per_tuple", "ns"},
	{"query.parse_validate_us", "us"},
	{"stratified.mqe_pass_ms", "ms"},
	{"stratified.sqe_pass_ms", "ms"},
	{"stratified.mqe_over_sqe", "ratio"},
	{"stratified.pass_alloc_mb", "MB"},
	{"stratified.pass_allocs", "count"},
	{"mapreduce.map_ms", "ms"},
	{"mapreduce.combine_ms", "ms"},
	{"mapreduce.shuffle_ms", "ms"},
	{"mapreduce.reduce_ms", "ms"},
	{"mapreduce.unattributed_frac", "fraction"},
	{"mapreduce.map_out_recs_per_pass", "count"},
	{"mapreduce.combine_in_per_out", "ratio"},
	{"mapreduce.shuffle_bytes_per_pass", "bytes"},
	{"sampling.reservoir_ns_per_item", "ns"},
	{"sampling.unified_us_per_stratum", "us"},
	{"serve.passes_per_query", "ratio"},
	{"serve.batch_occupancy_mean", "count"},
	{"serve.window_p50_ms", "ms"},
	{"serve.queue_p50_ms", "ms"},
	{"serve.pass_p50_ms", "ms"},
	{"serve.wire_p50_ms", "ms"},
	{"serve.request_self_us", "us"},
	{"serve.demux_ms", "ms"},
	{"live.ns_per_mutation", "ns"},
	{"live.repairs_per_1k_mutations", "count"},
	{"live.repair_scanned_per_mutation", "count"},
	{"live.max_staleness", "count"},
	{"live.hit_frac", "fraction"},
	{"worker.remote_overhead_frac", "fraction"},
	{"worker.queue_ms", "ms"},
	{"worker.wire_ms", "ms"},
	{"worker.exec_ms", "ms"},
	{"worker.decode_ms", "ms"},
	{"worker.direct_shuffle_bytes_per_pass", "bytes"},
	{"proc.cpu_ms_per_query", "ms"},
	{"proc.gc_cpu_frac", "fraction"},
	{"proc.alloc_mb_per_query", "MB"},
	{"proc.gc_cycles_per_query", "count"},
	{"proc.heap_live_peak_mb", "MB"},
	{"trace.overhead_frac", "fraction"},
}

// tracedRun runs the workload untraced and then traced on a fresh daemon
// with the same inputs, each for half of --seconds, times direct calls into
// the layers the serving path does not separate, and prints the per-layer
// metrics. Counters the daemon keeps always (/v1/stats, process counters)
// come from the untraced phase; span-derived numbers from the traced one.
func (r *runner) tracedRun(out string) (*result, error) {
	// The two phases share the run's measuring time.
	r.seconds /= 2
	base, err := r.measure(1, false)
	if err != nil {
		return nil, err
	}
	base.d.stop()
	r.rec = newRecorder()
	tm, err := r.measure(1, true)
	if err != nil {
		return nil, err
	}
	tm.d.stop()
	spans := tm.d.tracer.Spans()

	L := map[string]float64{}
	L["serve.new_server_s"] = base.d.newServer.Seconds()
	r.serveLayer(L, base, spans)
	r.note(mapreduceLayer(L, spans, base.d.passMetrics()))
	procLayer(L, base)
	L["trace.overhead_frac"] = 1 - tm.ph.rate/base.ph.rate
	if err := r.directLayers(L); err != nil {
		return nil, err
	}
	if r.w.live {
		r.liveNative(L, base)
		r.note(fmt.Sprintf("serve.push_p50_ms %.4f ms", float64(base.s1.PushP50Usec)/1000))
	}

	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	path := traceFile(out, r.w.name, r.seed)
	if err := writeTrace(path, r.rec.spans(), spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	res := &result{Metrics: map[string]metric{}}
	for _, m := range layerMetrics {
		v, ok := L[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
		fmt.Printf("  %-38s %14.4f %s\n", m.name, v, m.unit)
	}
	fmt.Printf("  untraced %.3f queries/s, traced %.3f queries/s\n", base.ph.rate, tm.ph.rate)
	if r.w.live {
		r.note(fmt.Sprintf("loadgen.late_p90_ms %.4f ms", quantile(base.ph.late, 0.9)))
	}
	if r.w.name == "campaign-1e6" {
		r.note(fmt.Sprintf("loadgen.polls_per_query %.3f (poll interval %v)",
			float64(base.ph.polls)/float64(max(base.ph.collected, 1)), pollInterval))
	}
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  spans written to %s\n", path)
	for _, m := range []*measured{base, tm} {
		res.Attempted += m.ph.attempted
		res.Failed += m.ph.failed
		if m.ph.firstErr != nil {
			fmt.Printf("  first error: %v\n", m.ph.firstErr)
		}
	}
	res.Correct = res.Failed == 0 && base.ph.answers > 0 && tm.ph.answers > 0
	return res, nil
}

// note keeps a line the traced run prints after the per-layer table: a
// number that reads 0 on a healthy run or exists on one workload only.
func (r *runner) note(line string) { r.notes = append(r.notes, line) }

// serveLayer reads the daemon's always-on counters (untraced phase) and its
// spans (traced phase). The latency attribution comes from the spans, at
// nanosecond resolution: a request's window span ends when its batch fires,
// and a pass's queue wait runs from there to the pass span's start. Only the
// answer-encoding ("wire") share has no span; /v1/stats reports it.
func (r *runner) serveLayer(L map[string]float64, base *measured, spans []mapreduce.Span) {
	s0, s1 := base.s0, base.s1
	L["serve.passes_per_query"] = float64(s1.Passes-s0.Passes) / float64(max(s1.Queries-s0.Queries, 1))
	L["serve.batch_occupancy_mean"] = s1.BatchMean
	L["serve.wire_p50_ms"] = float64(s1.Attribution["wire"].P50Usec) / 1000

	children := map[uint64][]interval{}
	byID := map[uint64]mapreduce.Span{}
	fired := map[uint64]time.Duration{} // request span id → its batch's fire time
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], spanInterval(s))
		}
		if s.Job != "serve" {
			continue
		}
		byID[s.ID] = s
		if s.Phase == "window" {
			fired[s.Parent] = s.Start + s.Wall
		}
	}
	var self, window, queue, pass, demux []float64
	for _, s := range spans {
		if s.Job != "serve" {
			continue
		}
		switch s.Phase {
		case "request":
			self = append(self, float64(selfTime(spanInterval(s), children[s.ID]))/1e3)
		case "window":
			window = append(window, ms(s.Wall))
		case "pass":
			pass = append(pass, ms(s.Wall))
			// pass → batch → the request that opened it.
			if at, ok := fired[byID[s.Parent].Parent]; ok {
				queue = append(queue, ms(s.Start-at))
			}
		case "demux":
			demux = append(demux, ms(s.Wall))
		}
	}
	L["serve.request_self_us"] = median(self)
	L["serve.window_p50_ms"] = median(window)
	L["serve.queue_p50_ms"] = median(queue)
	L["serve.pass_p50_ms"] = median(pass)
	L["serve.demux_ms"] = median(demux)
}

// mapreduceLayer splits every traced engine pass into its phases (span time
// summed over the pass's tasks; on tcp workers the attempts' queue, wire and
// exec children are the worker layer's), reports the part of the pass no
// phase span covers, and reads the engine's per-pass counters.
func mapreduceLayer(L map[string]float64, spans []mapreduce.Span, passes []mapreduce.Metrics) string {
	type run struct {
		job   mapreduce.Span
		tasks []mapreduce.Span
	}
	runs := map[string]*run{}
	for _, s := range spans {
		if s.Job == "serve" {
			continue
		}
		key := s.Trace + "/" + s.Run + "/" + s.Job
		rn := runs[key]
		if rn == nil {
			rn = &run{}
			runs[key] = rn
		}
		switch s.Phase {
		case mapreduce.PhaseJob:
			rn.job = s
		case mapreduce.PhaseMap, mapreduce.PhaseCombine, mapreduce.PhaseShuffleSend,
			mapreduce.PhaseShuffleRecv, mapreduce.PhaseReduce:
			if s.Wall > 0 {
				rn.tasks = append(rn.tasks, s)
			}
		}
	}
	phaseOf := map[string]string{
		mapreduce.PhaseMap: "map", mapreduce.PhaseCombine: "combine",
		mapreduce.PhaseShuffleSend: "shuffle", mapreduce.PhaseShuffleRecv: "shuffle",
		mapreduce.PhaseReduce: "reduce",
	}
	per := map[string][]float64{}
	var unattributed []float64
	for _, rn := range runs {
		if rn.job.Wall <= 0 {
			continue
		}
		sums := map[string]time.Duration{}
		var covered []interval
		for _, t := range rn.tasks {
			sums[phaseOf[t.Phase]] += t.Wall
			covered = append(covered, spanInterval(t))
		}
		for _, p := range []string{"map", "combine", "shuffle", "reduce"} {
			per[p] = append(per[p], ms(sums[p]))
		}
		unattributed = append(unattributed, 1-float64(unionLen(covered))/float64(rn.job.Wall))
	}
	for _, p := range []string{"map", "combine", "shuffle", "reduce"} {
		L["mapreduce."+p+"_ms"] = median(per[p])
	}
	L["mapreduce.unattributed_frac"] = median(unattributed)

	var out, cin, cout, bytes, retries float64
	for _, m := range passes {
		out += float64(m.MapOutputRecords)
		cin += float64(m.CombineInputRecs)
		cout += float64(m.CombineOutputRecs)
		bytes += float64(m.ShuffleBytes)
		retries += float64(m.MapAttempts - int64(m.MapTasks) + m.ReduceAttempts - int64(m.ReduceTasks) + m.ShuffleRetries)
	}
	n := float64(max(len(passes), 1))
	L["mapreduce.map_out_recs_per_pass"] = out / n
	L["mapreduce.combine_in_per_out"] = cin / max(cout, 1)
	L["mapreduce.shuffle_bytes_per_pass"] = bytes / n
	return fmt.Sprintf("mapreduce.task_retries %.0f over %d passes; %d traced passes", retries, len(passes), len(unattributed))
}

// procLayer reads the process counters of the untraced phase.
func procLayer(L map[string]float64, m *measured) {
	q := float64(max(m.ph.answers, 1))
	L["proc.cpu_ms_per_query"] = ms(m.p1.cpu-m.p0.cpu) / q
	L["proc.gc_cpu_frac"] = (m.p1.gcCPU - m.p0.gcCPU) / max(m.p1.totalCPU-m.p0.totalCPU, 1e-9)
	L["proc.alloc_mb_per_query"] = (m.p1.allocBytes - m.p0.allocBytes) / (1 << 20) / q
	L["proc.gc_cycles_per_query"] = (m.p1.cycles - m.p0.cycles) / q
	L["proc.heap_live_peak_mb"] = m.heapPeak
}

// liveNative reads the live workload's own maintenance cost and repairs over
// the untraced phase, and the share of warm reads answered warm.
func (r *runner) liveNative(L map[string]float64, m *measured) {
	l0, l1 := m.s0.Live, m.s1.Live
	if l0 == nil || l1 == nil {
		return
	}
	muts := float64(max((l1.Inserts+l1.Deletes+l1.Updates)-(l0.Inserts+l0.Deletes+l0.Updates), 1))
	L["live.ns_per_mutation"] = l1.NsPerMutation
	L["live.repairs_per_1k_mutations"] = float64(l1.Repairs-l0.Repairs) / muts * 1000
	L["live.repair_scanned_per_mutation"] = float64(l1.RepairScanned-l0.RepairScanned) / muts
	L["live.max_staleness"] = float64(l1.MaxStaleness)
	L["live.hit_frac"] = float64(m.ph.warmHit) / float64(max(m.ph.warmSent, 1))
}

// timeIt runs fn reps times and returns the median duration.
func timeIt(reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t)))
	}
	return time.Duration(median(ds)), nil
}

// directLayers times direct calls into the public functions of the layers
// the serving path does not separate, on the workload's own population and
// query group: dataset partitioning, query classification and parsing, the
// sampling kernels, MR-MQE against MR-SQE, the tcp worker backend against
// the in-process engine, and live maintenance.
func (r *runner) directLayers(L map[string]float64) error {
	in := r.in
	schema := in.pop.Schema()
	group := in.groups[0]
	if r.w.live {
		group = in.standing[0]
	}
	nSplits := dataset.DefaultSplits(daemonSlaves)
	var splits []dataset.Split
	d, err := timeIt(3, func() error {
		var err error
		splits, err = dataset.Partition(in.pop, nSplits, dataset.Contiguous, rand.New(rand.NewSource(r.seed)))
		return err
	})
	if err != nil {
		return err
	}
	L["dataset.partition_s"] = d.Seconds()

	// query: batch classification over the resident splits, and the text
	// parse plus validation every request pays.
	var classify, parse []float64
	for _, q := range group {
		c, err := query.NewBatchClassifier(q.ssd, schema)
		if err != nil {
			return err
		}
		var out []int
		t := time.Now()
		for _, s := range splits {
			out = c.ClassifyTuples(s, out)
		}
		classify = append(classify, float64(time.Since(t))/float64(in.pop.Len()))
		d, err := timeIt(5, func() error {
			p, err := query.ParseSSD(q.ssd.Name, q.text)
			if err != nil {
				return err
			}
			return p.Validate(schema)
		})
		if err != nil {
			return err
		}
		parse = append(parse, float64(d)/1e3)
	}
	L["query.classify_ns_per_tuple"] = median(classify)
	L["query.parse_validate_us"] = median(parse)

	ssds := make([]*query.SSD, len(group))
	for i, q := range group {
		ssds[i] = q.ssd
	}
	// stratified: one MR-MQE pass of the group against the MR-SQE passes of
	// its queries, same splits and seed, on the in-process engine. Each pass
	// starts after a collection, outside its timing, so no pass pays for
	// another's garbage.
	opts := stratified.Options{Seed: r.seed}
	var ms0, ms1 runtime.MemStats
	var mqeMS, allocMB, allocs []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t := time.Now()
		_, _, err := stratified.RunMQE(mapreduce.NewCluster(daemonSlaves), ssds, schema, splits, opts)
		mqeMS = append(mqeMS, ms(time.Since(t)))
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return err
		}
		allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
	}
	mqe := median(mqeMS)
	var sqe []float64
	var sqeSum float64
	for _, q := range ssds {
		runtime.GC()
		t := time.Now()
		if _, _, err := stratified.RunSQE(mapreduce.NewCluster(daemonSlaves), q, schema, splits, opts); err != nil {
			return err
		}
		sqe = append(sqe, ms(time.Since(t)))
		sqeSum += sqe[len(sqe)-1]
	}
	L["stratified.mqe_pass_ms"] = mqe
	L["stratified.sqe_pass_ms"] = median(sqe)
	L["stratified.mqe_over_sqe"] = mqe / sqeSum
	L["stratified.pass_alloc_mb"] = median(allocMB)
	L["stratified.pass_allocs"] = median(allocs)

	if err := samplingLayer(L, group[0], splits, r.seed); err != nil {
		return err
	}
	if err := r.workerLayer(L, group[0].ssd, splits); err != nil {
		return err
	}
	return r.liveLayer(L, ssds)
}

// samplingLayer times the reservoir at the group's per-stratum k over one
// map task's share of a typical stratum, and the unified sampler merging
// one intermediate sample per map task.
func samplingLayer(L map[string]float64, q *querySpec, splits []dataset.Split, seed int64) error {
	k := q.ssd.Strata[0].Freq
	n := max(int(median(intsToFloats(q.sizes)))/len(splits), k+1)
	items := make([]dataset.Tuple, 0, n)
	for _, s := range splits {
		for i := range s {
			if len(items) == n {
				break
			}
			items = append(items, s[i])
		}
	}
	rng := rand.New(rand.NewSource(seed))
	reps := max(2_000_000/len(items), 1)
	t := time.Now()
	for i := 0; i < reps; i++ {
		sampling.NewReservoir[dataset.Tuple](k, rng).AddSlice(items)
	}
	L["sampling.reservoir_ns_per_item"] = float64(time.Since(t)) / float64(reps*len(items))

	parts := make([]sampling.Weighted[dataset.Tuple], len(splits))
	for i := range parts {
		res := sampling.NewReservoir[dataset.Tuple](k, rng)
		res.AddSlice(items)
		parts[i] = sampling.Weighted[dataset.Tuple]{Sample: res.TakeSample(), N: int64(len(items))}
	}
	const calls = 20000
	t = time.Now()
	for i := 0; i < calls; i++ {
		sampling.UnifiedSample(parts, k, rng)
	}
	L["sampling.unified_us_per_stratum"] = float64(time.Since(t)) / 1e3 / calls
	return nil
}

func intsToFloats(v []int) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// workerLayer joins nproc tcp workers and runs one MR-SQE pass of q on them
// and on the in-process engine: the remote share of the pass, its remote
// child spans, and where its shuffle bytes travelled.
func (r *runner) workerLayer(L map[string]float64, q *query.SSD, splits []dataset.Split) error {
	var exec *worker.TCPExecutor
	join, err := timeIt(1, func() error {
		var err error
		if exec, err = worker.NewTCPExecutor(worker.TCPConfig{}); err != nil {
			return err
		}
		exec.SpawnLocal(nproc)
		return exec.AwaitWorkers(nproc, time.Minute)
	})
	if exec != nil {
		defer exec.Close()
	}
	if err != nil {
		return fmt.Errorf("joining tcp workers: %w", err)
	}
	L["worker.join_s"] = join.Seconds()
	schema := r.in.pop.Schema()
	opts := stratified.Options{Seed: r.seed}
	pass := func(c *mapreduce.Cluster) error {
		_, _, err := stratified.RunSQE(c, q, schema, splits, opts)
		return err
	}
	const reps = 3
	inproc, err := timeIt(reps, func() error { return pass(mapreduce.NewCluster(daemonSlaves)) })
	if err != nil {
		return err
	}
	c := mapreduce.NewCluster(daemonSlaves)
	c.Executor = exec
	s0 := exec.ShuffleStats()
	remote, err := timeIt(reps, func() error { return pass(c) })
	if err != nil {
		return err
	}
	s1 := exec.ShuffleStats()
	L["worker.remote_overhead_frac"] = float64(remote-inproc) / float64(remote)
	L["worker.direct_shuffle_bytes_per_pass"] = float64(s1.DirectBytes-s0.DirectBytes) / reps
	r.note(fmt.Sprintf("worker.routed_bytes_per_pass %.0f, worker.shuffle_lost %d over %d tcp passes",
		float64(s1.RoutedBucketBytes-s0.RoutedBucketBytes)/reps, s1.Lost-s0.Lost, reps))

	tr := mapreduce.NewMemTracer()
	c.Tracer = tr
	c.TraceContext = &mapreduce.TraceContext{Trace: "worker-layer", Run: "r1"}
	if err := pass(c); err != nil {
		return err
	}
	sums := map[string]time.Duration{}
	for _, s := range tr.Spans() {
		sums[s.Phase] += s.Wall
	}
	for _, p := range []string{mapreduce.PhaseQueue, mapreduce.PhaseWire, mapreduce.PhaseExec, mapreduce.PhaseDecode} {
		L["worker."+p+"_ms"] = ms(sums[p])
	}
	return nil
}

// liveLayer registers the group's queries on a live population built
// directly over a fresh copy of the splits. The live workload measures
// maintenance on its own traffic (liveNative); the others apply a short
// mutation log to the direct population.
func (r *runner) liveLayer(L map[string]float64, ssds []*query.SSD) error {
	splits, err := dataset.Partition(r.in.pop, dataset.DefaultSplits(daemonSlaves), dataset.Contiguous, nil)
	if err != nil {
		return err
	}
	lp, err := live.NewPopulation(r.in.pop.Schema(), splits, live.Config{})
	if err != nil {
		return err
	}
	keys := make([]string, len(ssds))
	t := time.Now()
	for i, q := range ssds {
		keys[i] = fmt.Sprintf("q%d", i)
		if _, err := lp.Register(keys[i], q, r.seed); err != nil {
			return err
		}
	}
	L["live.register_ms_per_query"] = ms(time.Since(t)) / float64(len(ssds))
	if r.w.live {
		return nil
	}
	log := newMutationLog(r.in.pop, nil, 200, rand.New(rand.NewSource(r.seed)))
	hits := 0
	for i, b := range log.batches {
		if res := lp.Apply(b); len(res.Rejected) > 0 {
			return fmt.Errorf("live layer: batch %d rejected %v", i, res.Rejected[0])
		}
		if _, _, _, ok := lp.Snapshot(keys[i%len(keys)]); ok {
			hits++
		}
	}
	st := lp.Stats()
	muts := float64(len(log.batches) * batchOps)
	L["live.ns_per_mutation"] = st.NsPerMutation
	L["live.repairs_per_1k_mutations"] = float64(st.Repairs) / muts * 1000
	L["live.repair_scanned_per_mutation"] = float64(st.RepairScanned) / muts
	L["live.max_staleness"] = float64(st.MaxStaleness)
	L["live.hit_frac"] = float64(hits) / float64(len(log.batches))
	return nil
}
