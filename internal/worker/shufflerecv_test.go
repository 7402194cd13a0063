package worker

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/mapreduce"
)

// TestShuffleReceiverTimeoutNamesMissingTask: a direct reduce attempt whose
// peer bucket never arrives gives up with a *mapreduce.ReceiveTimeoutError
// naming the reducer and the first missing map task, while a fully
// delivered reducer still receives normally under the same deadline.
func TestShuffleReceiverTimeoutNamesMissingTask(t *testing.T) {
	recv, err := newShuffleReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer recv.close()
	const session = "job#1"
	push := func(task int, reducers []int) {
		t.Helper()
		buckets := [][]byte{[]byte("r0"), []byte("r1")}
		if _, _, err := shuffleSendGroup(recv.addr(), session, task, reducers, buckets); err != nil {
			t.Fatal(err)
		}
	}

	// Two map tasks expected; only task 0 ever sends to reducer 1.
	push(0, []int{0, 1})
	timeout := 50 * time.Millisecond
	_, err = recv.receive(session, 1, []int{0, 1}, timeout)
	var te *mapreduce.ReceiveTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("receive error %T (%v), want *mapreduce.ReceiveTimeoutError", err, err)
	}
	if te.Reducer != 1 || te.Task != 1 || te.Timeout != timeout {
		t.Errorf("timeout = %+v, want reducer 1 task 1 after %v", te, timeout)
	}
	if want := "mapreduce: reducer 1 timed out waiting for task 1"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q, want prefix %q", err, want)
	}

	push(1, []int{0})
	got, err := recv.receive(session, 0, []int{0, 1}, timeout*20)
	if err != nil {
		t.Fatalf("receive(reducer 0) = %v, want success", err)
	}
	if len(got) != 2 || string(got[0]) != "r0" || string(got[1]) != "r0" {
		t.Fatalf("reducer 0 received %q, want both map tasks' buckets", got)
	}
}
