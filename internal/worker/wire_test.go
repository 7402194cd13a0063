package worker

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/mapreduce"
)

func sampleHistogram() *mapreduce.Histogram {
	h := &mapreduce.Histogram{}
	for _, v := range []int64{0, 1, 5, 1 << 20, -3} {
		h.Observe(v)
	}
	return h
}

// sampleEnvelopes covers every envelope kind with representative payloads —
// the table for round-trip tests and the fuzz seed corpus.
func sampleEnvelopes() []*envelope {
	return []*envelope{
		{Kind: msgHello, ID: "tcp-1", ShuffleAddr: "127.0.0.1:4242", WireVersion: wireVersion,
			WallNanos: 1700000000123456789},
		{Kind: msgHeartbeat},
		{Kind: msgDrain},
		{Kind: msgTask, Seq: 7, Spec: &mapreduce.TaskSpec{
			Job: "mr-sqe", Maker: "mr-sqe", Config: []byte(`{"q":1}`),
			Phase: "map", Task: 3, Seed: -42, NumReducers: 2,
			Split: []byte{1, 2, 3}, NumMapTasks: 6, Frozen: true,
		}},
		{Kind: msgTask, Seq: 8, Spec: &mapreduce.TaskSpec{
			Job: "mr-sqe", Maker: "mr-sqe", Phase: "reduce", Task: 0,
			NumReducers: 2, NumMapTasks: 3,
			Buckets:     [][]byte{{0x01, 0x00}, nil, {0x01, 0x02, 0x09}},
			CollectKeys: true,
			Shuffle: &mapreduce.ShufflePlan{
				Session:   "job#1",
				Workers:   []string{"tcp-1", "tcp-2"},
				Endpoints: []string{"127.0.0.1:1", "127.0.0.1:2"},
				TimeoutMs: 15000,
			},
		}},
		{Kind: msgResult, Seq: 7, Result: &mapreduce.TaskResult{
			Buckets:     [][]byte{{0x01, 0x00}, nil},
			DirectBytes: 123,
			Output:      []byte{0x00, 0xFF},
			Counters: mapreduce.TaskCounters{
				In: 100, Out: 50, CombineIn: 100, CombineOut: 50, Groups: 2,
				BucketSizes: []int64{10, 20},
				MapWall:     3 * time.Millisecond, CombineWall: time.Microsecond,
				RecvWall: time.Second,
			},
			Custom: map[string]*mapreduce.Histogram{"reservoir_size": sampleHistogram()},
			PerKey: map[string]mapreduce.KeyStats{
				"s000000": {Records: 3, Output: 1},
				"s000001": {Records: 4, Output: 2},
			},
			Worker:         "sp-0",
			FailedAttempts: []mapreduce.TaskAttempt{{Worker: "sp-1", Err: "lease expired"}},
		}},
		{Kind: msgResult, Seq: 9, Err: "no such maker", ShuffleLost: true},
	}
}

// TestEnvelopeBinaryRoundTrip: the binary codec must reproduce every
// envelope kind exactly, hello version and clock sample included, through
// the frameConn layer.
func TestEnvelopeBinaryRoundTrip(t *testing.T) {
	for _, env := range sampleEnvelopes() {
		var buf bytes.Buffer
		c := newFrameConn(&buf, &buf)
		if err := c.write(env); err != nil {
			t.Fatalf("%v frame: %v", env.Kind, err)
		}
		got, err := c.read()
		if err != nil {
			t.Fatalf("%v frame: %v", env.Kind, err)
		}
		if !reflect.DeepEqual(env, got) {
			t.Errorf("%v frame round trip:\nwant %+v\n got %+v", env.Kind, env, got)
		}
	}
}

// TestEnvelopeBinaryMatchesGob cross-checks the binary envelope codec
// against a plain encoding/gob round trip, the reference for "preserves
// every field": each envelope kind, hello included, must decode to the same
// value either way.
func TestEnvelopeBinaryMatchesGob(t *testing.T) {
	for _, env := range sampleEnvelopes() {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(env); err != nil {
			t.Fatal(err)
		}
		var viaGob envelope
		if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
			t.Fatal(err)
		}
		viaBinary, err := decodeEnvelope(appendEnvelope(nil, env))
		if err != nil {
			t.Fatalf("%v frame: %v", env.Kind, err)
		}
		// gob's nil/empty slice conflations are canonicalized by comparing
		// through the binary rendering.
		if !bytes.Equal(appendEnvelope(nil, &viaGob), appendEnvelope(nil, viaBinary)) {
			t.Errorf("%v frame decodes differently:\ngob    %+v\nbinary %+v", env.Kind, &viaGob, viaBinary)
		}
	}
}

// TestFrameErrorsNamed: oversized length prefixes and mid-frame cuts
// surface as the named error types, and a clean close stays bare io.EOF.
func TestFrameErrorsNamed(t *testing.T) {
	oversize := []byte{0x40, 0x00, 0x00, 0x01} // 1 GiB + 1, top bit clear
	_, err := newFrameConn(bytes.NewReader(oversize), io.Discard).read()
	var fse *FrameSizeError
	if !errors.As(err, &fse) {
		t.Errorf("oversized frame: %v, want *FrameSizeError", err)
	} else if fse.Size != maxFrameSize+1 {
		t.Errorf("FrameSizeError.Size = %d, want %d", fse.Size, maxFrameSize+1)
	}

	short := []byte{0x00, 0x00, 0x00, 0x10, 0xAA} // claims 16 bytes, has 1
	_, err = newFrameConn(bytes.NewReader(short), io.Discard).read()
	var fte *FrameTruncatedError
	if !errors.As(err, &fte) {
		t.Errorf("truncated frame: %v, want *FrameTruncatedError", err)
	} else if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("FrameTruncatedError does not unwrap to io.ErrUnexpectedEOF: %v", err)
	}

	cutPrefix := []byte{0x00, 0x00} // stream dies inside the length word
	_, err = newFrameConn(bytes.NewReader(cutPrefix), io.Discard).read()
	if !errors.As(err, &fte) {
		t.Errorf("cut length prefix: %v, want *FrameTruncatedError", err)
	}

	_, err = newFrameConn(bytes.NewReader(nil), io.Discard).read()
	if err != io.EOF {
		t.Errorf("clean close: %v, want bare io.EOF", err)
	}
}

// TestDecodeEnvelopeCorruptRejected: flipped bytes and truncations of valid
// frames decode to clean errors, never a panic.
func TestDecodeEnvelopeCorruptRejected(t *testing.T) {
	for _, env := range sampleEnvelopes() {
		buf := appendEnvelope(nil, env)
		for cut := 0; cut < len(buf); cut += 2 {
			if _, err := decodeEnvelope(buf[:cut]); err == nil {
				// Some prefixes of a valid frame are themselves valid frames
				// (trailing zero-valued fields); Done() catches the rest.
				t.Logf("%v frame: prefix %d/%d decoded cleanly", env.Kind, cut, len(buf))
			}
		}
		for i := range buf {
			mut := append([]byte(nil), buf...)
			mut[i] ^= 0xFF
			_, _ = decodeEnvelope(mut) // must not panic
		}
	}
}

func FuzzDecodeEnvelope(f *testing.F) {
	for _, env := range sampleEnvelopes() {
		f.Add(appendEnvelope(nil, env))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := decodeEnvelope(data)
		if err == nil {
			// Valid decodes must re-encode decodable (not necessarily
			// byte-identical: nil/empty maps conflate).
			if _, err := decodeEnvelope(appendEnvelope(nil, env)); err != nil {
				t.Fatalf("re-encode of valid decode failed: %v", err)
			}
		}
	})
}
