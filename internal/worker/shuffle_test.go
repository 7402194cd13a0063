package worker_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/worker"
)

// newTCP starts a TCP executor with n local workers attached.
func newTCP(t testing.TB, n int, cfg worker.TCPConfig) *worker.TCPExecutor {
	t.Helper()
	exec, err := worker.NewTCPExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exec.SpawnLocal(n)
	if err := exec.AwaitWorkers(n, 10*time.Second); err != nil {
		exec.Close()
		t.Fatal(err)
	}
	return exec
}

// TestDirectShuffleZeroRoutedBytes pins the tentpole contract: with direct
// shuffle engaged (the tcp default), the job's answer and metrics are
// byte-identical to the in-process engine, yet the coordinator carries zero
// bucket payload bytes — everything travels worker-to-worker.
func TestDirectShuffleZeroRoutedBytes(t *testing.T) {
	splits := testPopulation(t)
	want, wantMet := runSQE(t, nil, splits)

	exec := newTCP(t, 3, worker.TCPConfig{})
	defer exec.Close()
	got, gotMet := runSQE(t, exec, splits)

	if !reflect.DeepEqual(want, got) {
		t.Errorf("direct-shuffle answer differs from in-process:\n in: %v\nout: %v", want, got)
	}
	if !reflect.DeepEqual(wantMet, gotMet) {
		t.Errorf("direct-shuffle metrics differ from in-process:\n in: %+v\nout: %+v", wantMet, gotMet)
	}
	st := exec.ShuffleStats()
	if st.RoutedBucketBytes != 0 {
		t.Errorf("coordinator carried %d bucket bytes on the direct path, want 0", st.RoutedBucketBytes)
	}
	if st.DirectBytes == 0 {
		t.Error("DirectBytes = 0: no bucket traveled worker-to-worker")
	}
	if st.Lost != 0 {
		t.Errorf("Lost = %d direct shuffles on a healthy pool, want 0", st.Lost)
	}
}

// TestRoutedShuffleEscapeHatch: with RoutedShuffle set the executor plans no
// direct sessions — the answer is unchanged and every bucket byte is
// coordinator-carried, mirroring the subprocess backend.
func TestRoutedShuffleEscapeHatch(t *testing.T) {
	splits := testPopulation(t)
	want, wantMet := runSQE(t, nil, splits)

	exec := newTCP(t, 3, worker.TCPConfig{RoutedShuffle: true})
	defer exec.Close()
	got, gotMet := runSQE(t, exec, splits)

	if !reflect.DeepEqual(want, got) {
		t.Errorf("routed answer differs from in-process:\n in: %v\nout: %v", want, got)
	}
	if !reflect.DeepEqual(wantMet, gotMet) {
		t.Errorf("routed metrics differ from in-process:\n in: %+v\nout: %+v", wantMet, gotMet)
	}
	st := exec.ShuffleStats()
	if st.DirectBytes != 0 {
		t.Errorf("DirectBytes = %d with RoutedShuffle set, want 0", st.DirectBytes)
	}
	if st.RoutedBucketBytes == 0 {
		t.Error("RoutedBucketBytes = 0 on the routed path, want > 0")
	}
}

// Subprocess workers have no peer listener, so their shuffle must always be
// coordinator-routed regardless of the direct data plane existing.
func TestSubprocessShuffleAlwaysRouted(t *testing.T) {
	splits := testPopulation(t)
	exec := newSubprocess(t, 2, nil)
	defer exec.Close()
	runSQE(t, exec, splits)

	st := exec.ShuffleStats()
	if st.DirectBytes != 0 {
		t.Errorf("subprocess DirectBytes = %d, want 0", st.DirectBytes)
	}
	if st.RoutedBucketBytes == 0 {
		t.Error("subprocess RoutedBucketBytes = 0, want > 0")
	}
}

// TestDirectShuffleCrashFallback kills a direct-shuffle worker on its first
// task: map re-execution, lost-shuffle detection and the routed replay path
// must still converge on the in-process answer.
func TestDirectShuffleCrashFallback(t *testing.T) {
	splits := testPopulation(t)
	want, _ := runSQE(t, nil, splits)

	exec, err := worker.NewTCPExecutor(worker.TCPConfig{
		ShuffleTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	exec.SpawnLocalOpts(1, worker.ServeOptions{ExitAfter: 1})
	exec.SpawnLocalOpts(2, worker.ServeOptions{})
	if err := exec.AwaitWorkers(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	got, met := runSQE(t, exec, splits)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("answer after mid-shuffle crash differs from in-process:\n in: %v\nout: %v", want, got)
	}
	if len(got.Strata[0]) != 7 || len(got.Strata[1]) != 9 {
		t.Errorf("per-stratum fill %d/%d after crash, want 7/9",
			len(got.Strata[0]), len(got.Strata[1]))
	}
	if met.ShuffleRetries < 1 {
		t.Errorf("ShuffleRetries = %d after a lost direct shuffle, want >= 1", met.ShuffleRetries)
	}
}

// BenchmarkShuffleDirectVsRouted runs the same MR-SQE job on one tcp pool
// with the direct data plane on and off: the wall-clock delta is the cost of
// hauling every bucket through the coordinator, and the reported
// coordinator-bytes metric shows what the direct path removes from it.
func BenchmarkShuffleDirectVsRouted(b *testing.B) {
	for _, size := range []int{1, 50} {
		splits := scaledPopulation(b, size)
		bench := func(b *testing.B, cfg worker.TCPConfig) {
			exec := newTCP(b, 3, cfg)
			defer exec.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSQE(b, exec, splits)
			}
			st := exec.ShuffleStats()
			b.ReportMetric(float64(st.RoutedBucketBytes)/float64(b.N), "coordB/op")
			b.ReportMetric(float64(st.DirectBytes)/float64(b.N), "directB/op")
		}
		b.Run(fmt.Sprintf("pop=%d/shuffle=direct", size*900), func(b *testing.B) {
			bench(b, worker.TCPConfig{})
		})
		b.Run(fmt.Sprintf("pop=%d/shuffle=routed", size*900), func(b *testing.B) {
			bench(b, worker.TCPConfig{RoutedShuffle: true})
		})
	}
}

// scaledPopulation is testPopulation's distribution at size× the tuples, so
// the shuffle benchmark can show both the tiny-bucket and the heavy-bucket
// regime.
func scaledPopulation(t testing.TB, size int) []dataset.Split {
	t.Helper()
	r := dataset.NewRelation(testSchema())
	id := int64(0)
	for i := 0; i < 400*size; i++ {
		r.MustAdd(dataset.Tuple{ID: id, Attrs: []int64{1, id % 1001}})
		id++
	}
	for i := 0; i < 500*size; i++ {
		r.MustAdd(dataset.Tuple{ID: id, Attrs: []int64{0, id % 1001}})
		id++
	}
	splits, err := dataset.Partition(r, 6, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	return splits
}

// TestDirectShuffleMixedPool: a pool where one worker opted out of the data
// plane (routed-only) still completes with the in-process answer — the plan
// simply never places reducers on the opted-out worker, and any bucket
// pushed to a planless destination stays coordinator-carried.
func TestDirectShuffleMixedPool(t *testing.T) {
	splits := testPopulation(t)
	want, _ := runSQE(t, nil, splits)

	exec, err := worker.NewTCPExecutor(worker.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	exec.SpawnLocalOpts(1, worker.ServeOptions{RoutedShuffle: true})
	exec.SpawnLocalOpts(2, worker.ServeOptions{})
	if err := exec.AwaitWorkers(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	got, _ := runSQE(t, exec, splits)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("mixed-pool answer differs from in-process:\n in: %v\nout: %v", want, got)
	}
}
