package mapreduce

import (
	"reflect"
	"strconv"
	"testing"
)

// TestPipelinedShuffleStress drives the pipelined shuffle hard — many map
// tasks racing to hand buckets to many reducers — and checks the output is byte-identical to a fully serial
// (one-slot) run. Run under `go test -race ./internal/mapreduce/` this is
// the main concurrency check for the map→shuffle→reduce pipeline.
func TestPipelinedShuffleStress(t *testing.T) {
	splits := make([][]int, 32)
	for s := range splits {
		rows := make([]int, 300)
		for i := range rows {
			rows[i] = s*300 + i
		}
		splits[s] = rows
	}
	mkJob := func() *Job[int, int, int64, Pair[int, int64]] {
		return &Job[int, int, int64, Pair[int, int64]]{
			Name: "pipeline-stress",
			Seed: 42,
			Mapper: MapperFunc[int, int, int64](func(ctx *TaskContext, v int, emit func(int, int64)) {
				// Draw from the task RNG so determinism depends on correct
				// per-task seeding, not just on pure data flow.
				emit(v%101, int64(v)+ctx.Rand.Int63n(3))
			}),
			Reducer: ReducerFunc[int, int64, Pair[int, int64]](func(ctx *TaskContext, k int, vs []int64, emit func(Pair[int, int64])) {
				var sum int64
				for _, v := range vs {
					sum += v
				}
				emit(Pair[int, int64]{k, sum + ctx.Rand.Int63n(3)})
			}),
			NumReducers: 8,
			KeyString:   func(k int) string { return strconv.Itoa(k) },
		}
	}

	serial := &Cluster{Slaves: 1, SlotsPerSlave: 1, Cost: ZeroCostModel()}
	want, err := Run(serial, mkJob(), splits)
	if err != nil {
		t.Fatal(err)
	}

	c := &Cluster{Slaves: 8, SlotsPerSlave: 2, Cost: ZeroCostModel()}
	got, err := Run(c, mkJob(), splits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Fatal("output differs from serial run")
	}
	if got.Metrics.ShuffleRecords != want.Metrics.ShuffleRecords {
		t.Fatalf("shuffle records %d, want %d", got.Metrics.ShuffleRecords, want.Metrics.ShuffleRecords)
	}
	if got.Metrics.ShuffleBytes != want.Metrics.ShuffleBytes {
		t.Fatalf("shuffle bytes %d, want %d", got.Metrics.ShuffleBytes, want.Metrics.ShuffleBytes)
	}
}
