package mapreduce

import (
	"bytes"
	"log/slog"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The tests here pin the executor seam's core contract: a job routed
// through the portable path — (Maker, Config) registry, serialized splits
// and buckets, TaskSpec/TaskResult round-trips — produces output,
// metrics and (under a frozen clock) span streams byte-identical to the
// in-process engine.

// remoteModCountJob is a portable test job exercising every seam the
// backends must agree on: a combiner (canonical combine order), a custom
// KeyString, per-key reducer randomness (per-key reseeding), and Observe
// (custom histogram transport).
func remoteModCountJob() *Job[int, int, int64, int64] {
	return &Job[int, int, int64, int64]{
		Name: "remote-modcount",
		Mapper: MapperFunc[int, int, int64](func(_ *TaskContext, v int, emit func(int, int64)) {
			emit(v%53, int64(v))
		}),
		Combiner: CombinerFunc[int, int64](func(ctx *TaskContext, _ int, vs []int64, emit func(int64)) {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			ctx.Observe("combine_in", int64(len(vs)))
			emit(sum)
		}),
		Reducer: ReducerFunc[int, int64, int64](func(ctx *TaskContext, k int, vs []int64, emit func(int64)) {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			// The random draw pins per-key RNG seeding: any backend that
			// seeds differently produces different output.
			emit(sum + ctx.Rand.Int63n(1000))
		}),
		KeyString: func(k int) string { return "k" + strconv.Itoa(k) },
	}
}

func init() {
	RegisterJobMaker("test-remote-modcount",
		func(config []byte) (*Job[int, int, int64, int64], error) {
			return remoteModCountJob(), nil
		})
}

// loopbackExecutor drives the full remote path (runRemote + registry +
// serialization) without processes: Execute is what a worker would run.
type loopbackExecutor struct{}

func (loopbackExecutor) Name() string                                { return "loopback" }
func (loopbackExecutor) Execute(spec *TaskSpec) (*TaskResult, error) { return ExecuteTask(spec) }
func (loopbackExecutor) Close() error                                { return nil }

func remoteTestSplits() [][]int {
	splits := make([][]int, 7)
	for s := range splits {
		rows := make([]int, 400+13*s)
		for i := range rows {
			rows[i] = s*1000 + i*3
		}
		splits[s] = rows
	}
	return splits
}

func remoteTestCluster() *Cluster {
	return &Cluster{
		Slaves: 3, SlotsPerSlave: 2, Cost: DefaultCostModel(),
		Clock: FrozenClock(time.Unix(0, 0)),
	}
}

func portableJob(seed int64) *Job[int, int, int64, int64] {
	job := remoteModCountJob()
	job.Seed = seed
	job.Maker = "test-remote-modcount"
	return job
}

func TestRemoteExecutorMatchesInproc(t *testing.T) {
	splits := remoteTestSplits()
	want, err := Run(remoteTestCluster(), portableJob(42), splits)
	if err != nil {
		t.Fatal(err)
	}
	remote := remoteTestCluster()
	remote.Executor = loopbackExecutor{}
	got, err := Run(remote, portableJob(42), splits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Output, got.Output) {
		t.Errorf("remote output differs from in-process:\n in: %v\nout: %v", want.Output, got.Output)
	}
	if !reflect.DeepEqual(want.Metrics, got.Metrics) {
		t.Errorf("remote metrics differ from in-process:\n in: %+v\nout: %+v", want.Metrics, got.Metrics)
	}
}

// lossyShuffler is a loopback DirectShuffler whose planned worker for one
// reducer always reports the direct shuffle lost.
type lossyShuffler struct {
	loopbackExecutor
	lose int
}

func (l lossyShuffler) PlanShuffle(job string, numReducers int) *ShufflePlan {
	plan := &ShufflePlan{Session: job + "#1", Workers: make([]string, numReducers), Endpoints: make([]string, numReducers)}
	for r := range plan.Workers {
		plan.Workers[r] = "w" + strconv.Itoa(r)
	}
	return plan
}

func (l lossyShuffler) ExecuteOn(worker string, spec *TaskSpec) (*TaskResult, error) {
	if spec.Task == l.lose {
		return nil, &ShuffleLostError{Worker: worker, Reducer: spec.Task, Reason: "peer bucket never arrived"}
	}
	routed := *spec
	routed.Shuffle = nil
	return ExecuteTask(&routed)
}

// TestShuffleRetriesSurfaceInMetrics: a reducer whose direct shuffle is lost
// is replayed once over the routed path, counted in Metrics.ShuffleRetries,
// and the job still matches the in-process run.
func TestShuffleRetriesSurfaceInMetrics(t *testing.T) {
	splits := remoteTestSplits()
	want, err := Run(remoteTestCluster(), portableJob(3), splits)
	if err != nil {
		t.Fatal(err)
	}
	c := remoteTestCluster()
	c.Executor = lossyShuffler{lose: 1}
	got, err := Run(c, portableJob(3), splits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Output, got.Output) {
		t.Errorf("output after a lost shuffle differs from in-process:\n in: %v\nout: %v", want.Output, got.Output)
	}
	if got.Metrics.ShuffleRetries != 1 {
		t.Errorf("Metrics.ShuffleRetries = %d, want 1 (one lost reducer)", got.Metrics.ShuffleRetries)
	}
	if got.Metrics.ReduceAttempts != want.Metrics.ReduceAttempts+1 {
		t.Errorf("ReduceAttempts = %d, want %d: the lost attempt counts once",
			got.Metrics.ReduceAttempts, want.Metrics.ReduceAttempts+1)
	}
	if want.Metrics.ShuffleRetries != 0 {
		t.Errorf("in-process ShuffleRetries = %d, want 0", want.Metrics.ShuffleRetries)
	}
}

// TestRemoteGoldenSpans locks the executor seam's observability contract:
// under a frozen clock the remote path's span file is byte-identical to the
// in-process one (the loopback executor reports no worker id, so not even
// normalization is needed).
func TestRemoteGoldenSpans(t *testing.T) {
	splits := remoteTestSplits()
	faults := &FaultModel{TaskFailureProb: 0.3, Seed: 99}

	run := func(exec Executor) []byte {
		var buf bytes.Buffer
		c := remoteTestCluster()
		c.Faults = faults
		tr := NewJSONLTracer(&buf)
		c.Tracer = tr
		c.Executor = exec
		if _, err := Run(c, portableJob(11), splits); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatal("no spans written")
		}
		return buf.Bytes()
	}
	inproc := run(nil)
	remote := run(loopbackExecutor{})
	if !bytes.Equal(inproc, remote) {
		t.Errorf("span files differ between in-process and remote execution:\n--- inproc ---\n%s\n--- remote ---\n%s", inproc, remote)
	}
}

// TestNonPortableJobFallsBack checks that a closure-only job (no Maker)
// still runs correctly when a remote executor is installed: the engine
// keeps it in-process instead of failing — and that the fallback is loud,
// not silent: the counter moves and a structured warning names the job.
func TestNonPortableJobFallsBack(t *testing.T) {
	splits := remoteTestSplits()
	want, err := Run(remoteTestCluster(), portableJob(5), splits)
	if err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn})))
	defer slog.SetDefault(prev)
	before := NonPortableFallbacks()

	c := remoteTestCluster()
	c.Executor = loopbackExecutor{}
	job := remoteModCountJob() // no Maker set
	job.Seed = 5
	got, err := Run(c, job, splits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Output, got.Output) {
		t.Errorf("fallback output differs from in-process run")
	}
	if d := NonPortableFallbacks() - before; d != 1 {
		t.Errorf("NonPortableFallbacks moved by %d, want 1", d)
	}
	out := logs.String()
	if !strings.Contains(out, "job is not portable") {
		t.Errorf("fallback warning missing from logs:\n%s", out)
	}
	if !strings.Contains(out, "job="+job.Name) {
		t.Errorf("fallback warning does not name job %q:\n%s", job.Name, out)
	}
	if !strings.Contains(out, "executor=loopback") {
		t.Errorf("fallback warning does not name the bypassed executor:\n%s", out)
	}
}

// TestInprocExecutorIsRecognized checks the engine treats an installed
// *InprocExecutor like no executor (the fast closure path), and that its
// Execute method still works standalone through the registry.
func TestInprocExecutorIsRecognized(t *testing.T) {
	c := remoteTestCluster()
	c.Executor = &InprocExecutor{}
	if c.remoteExecutor() != nil {
		t.Fatal("InprocExecutor must not be treated as a remote executor")
	}
	splits := remoteTestSplits()
	want, err := Run(remoteTestCluster(), portableJob(3), splits)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(c, portableJob(3), splits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Output, got.Output) {
		t.Errorf("InprocExecutor cluster output differs")
	}
}

func TestExecuteTaskUnknownMaker(t *testing.T) {
	_, err := ExecuteTask(&TaskSpec{Job: "x", Maker: "no-such-maker", Phase: "map"})
	if err == nil {
		t.Fatal("want error for unregistered maker")
	}
}
