package cps

import (
	"testing"
	"time"

	"repro/internal/worker"
)

// TestCPSOverTCPShuffle runs the entire four-job MR-CPS pipeline with the
// cluster's executor set to tcp workers, and checks the outcome matches the
// in-process run exactly (same seed → same individuals). The portable MR-MQE
// pass shuffles worker-to-worker over loopback sockets; the bespoke keyed
// classifier jobs fall back to in-process execution.
func TestCPSOverTCPShuffle(t *testing.T) {
	r := testPop(400)
	m := example6MSSD(8, 8, 8, 8)
	splits := splitsOf(t, r, 3)

	exec, err := worker.NewTCPExecutor(worker.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	exec.SpawnLocal(3)
	if err := exec.AwaitWorkers(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	tcpCluster := zcluster(3)
	tcpCluster.Executor = exec
	overTCP, err := Run(tcpCluster, m, r.Schema(), splits, Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(zcluster(3), m, r.Schema(), splits, Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range m.Queries {
		if err := overTCP.Answers[qi].Satisfies(q, r); err != nil {
			t.Fatalf("survey %d over TCP: %v", qi, err)
		}
		a, b := overTCP.Answers[qi], plain.Answers[qi]
		for k := range q.Strata {
			if len(a.Strata[k]) != len(b.Strata[k]) {
				t.Fatalf("survey %d stratum %d sizes differ across backends", qi, k)
			}
			for i := range a.Strata[k] {
				if a.Strata[k][i].ID != b.Strata[k][i].ID {
					t.Fatalf("survey %d stratum %d: tuple %d differs across backends", qi, k, i)
				}
			}
		}
	}
	if overTCP.Metrics.ShuffleBytes != plain.Metrics.ShuffleBytes {
		t.Errorf("shuffle bytes %d over TCP, %d in-process: accounting must not depend on the backend",
			overTCP.Metrics.ShuffleBytes, plain.Metrics.ShuffleBytes)
	}
	if exec.ShuffleStats().DirectBytes == 0 {
		t.Fatal("no shuffle bytes travelled between workers")
	}
}
