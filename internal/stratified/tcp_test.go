package stratified

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/query"
	"repro/internal/worker"
)

// tcpCluster returns a cluster whose tasks run on n tcp workers registered
// over loopback sockets; its shuffle travels worker-to-worker.
func tcpCluster(t *testing.T, slaves, n int) *mapreduce.Cluster {
	t.Helper()
	exec, err := worker.NewTCPExecutor(worker.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { exec.Close() })
	exec.SpawnLocal(n)
	if err := exec.AwaitWorkers(n, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	c := mapreduce.NewCluster(slaves)
	c.Executor = exec
	return c
}

// shuffledDirect reports the wire bytes the cluster's tcp workers moved
// worker-to-worker.
func shuffledDirect(c *mapreduce.Cluster) int64 {
	return c.Executor.(*worker.TCPExecutor).ShuffleStats().DirectBytes
}

// TestSQEOverTCPShuffle runs the whole MR-SQE pipeline on tcp workers, its
// shuffle travelling binary-encoded over loopback sockets — the closest
// this repo gets to the paper's real cluster — and checks the answer is
// exact and identical to the in-process run with the same seed.
func TestSQEOverTCPShuffle(t *testing.T) {
	r := genderPop(200, 150)
	splits, err := dataset.Partition(r, 6, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	cluster := tcpCluster(t, 3, 3)
	q := genderSSD(7, 9)
	ans, _, err := RunSQE(cluster, q, r.Schema(), splits, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ans.Satisfies(q, r); err != nil {
		t.Fatal(err)
	}
	if shuffledDirect(cluster) == 0 {
		t.Fatal("no shuffle bytes travelled between workers")
	}
	plain, _, err := RunSQE(mapreduce.NewCluster(3), q, r.Schema(), splits, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ans, plain) {
		t.Fatalf("tcp answer differs from in-process:\n tcp: %v\n  in: %v", ans, plain)
	}
}

// TestMQEOverTCPShuffle: the multi-query pipeline with struct keys also
// survives the serialized worker-to-worker shuffle.
func TestMQEOverTCPShuffle(t *testing.T) {
	r := genderPop(120, 130)
	splits, _ := dataset.Partition(r, 4, dataset.RoundRobin, nil)
	cluster := tcpCluster(t, 2, 2)
	queries := []*query.SSD{genderSSD(4, 5), incomeSSD(3, 6)}
	answers, _, err := RunMQE(cluster, queries, r.Schema(), splits, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		if err := answers[qi].Satisfies(q, r); err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
	}
	if shuffledDirect(cluster) == 0 {
		t.Fatal("no shuffle bytes travelled between workers")
	}
	plain, _, err := RunMQE(mapreduce.NewCluster(2), queries, r.Schema(), splits, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(answers, plain) {
		t.Fatal("tcp answers differ from in-process")
	}
}
