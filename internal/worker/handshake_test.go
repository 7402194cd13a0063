package worker

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// badHelloEnv makes a subprocess child of this test binary send one of the
// foreign hellos below instead of serving: "future" or "legacy".
const badHelloEnv = "STRATA_TEST_BAD_HELLO"

func init() {
	// Runs before the external test package's TestMain, so a child asked
	// for a bad hello never reaches the real serve loop.
	var hello []byte
	switch os.Getenv(badHelloEnv) {
	case "":
		return
	case "future":
		hello = futureHello()
	default:
		hello = legacyGobHello()
	}
	os.Stdout.Write(hello)
	os.Exit(0)
}

// futureHello is a well-formed binary hello announcing the next wire version.
func futureHello() []byte {
	buf := appendEnvelope([]byte{0, 0, 0, 0}, &envelope{Kind: msgHello, ID: "future", WireVersion: wireVersion + 1})
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4)|binaryFrameFlag)
	return buf
}

// legacyGobHello is the hello of a pre-binary build: a gob-encoded envelope
// behind a length word without the binary flag.
func legacyGobHello() []byte {
	var body bytes.Buffer
	legacy := struct {
		Kind        uint8
		WireVersion uint8
		ID          string
	}{uint8(msgHello), 2, "legacy"}
	if err := gob.NewEncoder(&body).Encode(legacy); err != nil {
		panic(err)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(body.Len())), body.Bytes()...)
}

// checkHelloErr asserts err is the named rejection for the given hello kind.
func checkHelloErr(t *testing.T, kind string, err error) {
	t.Helper()
	switch kind {
	case "future":
		var ve *WireVersionError
		if !errors.As(err, &ve) {
			t.Fatalf("future hello: %v, want *WireVersionError", err)
		}
		if ve.Got != wireVersion+1 || ve.Want != wireVersion {
			t.Errorf("WireVersionError = %+v, want Got %d Want %d", ve, wireVersion+1, wireVersion)
		}
		for _, v := range []int{wireVersion, wireVersion + 1} {
			if !strings.Contains(err.Error(), fmt.Sprint(v)) {
				t.Errorf("version error %q does not name version %d", err, v)
			}
		}
	case "legacy":
		if !errors.Is(err, ErrNotBinaryFrame) {
			t.Fatalf("legacy gob hello: %v, want ErrNotBinaryFrame", err)
		}
	}
}

var foreignHellos = []struct {
	kind  string
	hello func() []byte
}{{"future", futureHello}, {"legacy", legacyGobHello}}

// lockedBuffer is a goroutine-safe log sink.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTCPExecutorRejectsForeignHello: the coordinator logs the named error,
// closes the connection without attaching a worker, and still accepts a
// correct worker afterwards.
func TestTCPExecutorRejectsForeignHello(t *testing.T) {
	splits := frameErrSplits(t)
	want, _ := frameErrRun(t, nil, splits)
	for _, fh := range foreignHellos {
		t.Run(fh.kind, func(t *testing.T) {
			var logs lockedBuffer
			prev := slog.Default()
			slog.SetDefault(slog.New(slog.NewTextHandler(&logs, nil)))
			defer slog.SetDefault(prev)

			exec, err := NewTCPExecutor(TCPConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer exec.Close()
			conn, err := net.Dial("tcp", exec.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(fh.hello()); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("coordinator answered a %s hello (%d bytes, %v), want close", fh.kind, n, err)
			}
			if live := exec.pool.liveWorkers(); live != 0 {
				t.Fatalf("%d workers attached after a %s hello, want 0", live, fh.kind)
			}
			var wantMsg string
			if fh.kind == "future" {
				wantMsg = (&WireVersionError{Got: wireVersion + 1, Want: wireVersion}).Error()
			} else {
				wantMsg = ErrNotBinaryFrame.Error()
			}
			if !strings.Contains(logs.String(), wantMsg) {
				t.Errorf("rejection log lacks %q:\n%s", wantMsg, logs.String())
			}

			exec.SpawnLocal(1)
			if err := exec.AwaitWorkers(1, 10*time.Second); err != nil {
				t.Fatal(err)
			}
			if got, _ := frameErrRun(t, exec, splits); !reflect.DeepEqual(want, got) {
				t.Errorf("answer after a rejected hello differs from in-process:\n in: %v\nout: %v", want, got)
			}
		})
	}
}

// TestSubprocessExecutorRejectsForeignHello: a child whose hello is foreign
// fails pool construction with the named error (a subprocess pool is fixed
// at construction), and a pool of correct children starts normally after.
func TestSubprocessExecutorRejectsForeignHello(t *testing.T) {
	spawn := func(bad string) (*SubprocessExecutor, error) {
		return NewSubprocessExecutor(SubprocessConfig{
			Workers: 2,
			Command: []string{os.Args[0]},
			ExtraEnv: func(i int) []string {
				if i == 1 && bad != "" {
					return []string{badHelloEnv + "=" + bad}
				}
				return []string{"STRATA_TEST_WORKER=1"}
			},
		})
	}
	for _, fh := range foreignHellos {
		exec, err := spawn(fh.kind)
		if err == nil {
			exec.Close()
			t.Fatalf("subprocess pool accepted a %s hello", fh.kind)
		}
		checkHelloErr(t, fh.kind, err)
	}

	exec, err := spawn("")
	if err != nil {
		t.Fatalf("correct workers rejected after foreign hellos: %v", err)
	}
	defer exec.Close()
	splits := frameErrSplits(t)
	want, _ := frameErrRun(t, nil, splits)
	if got, _ := frameErrRun(t, exec, splits); !reflect.DeepEqual(want, got) {
		t.Errorf("subprocess answer differs from in-process:\n in: %v\nout: %v", want, got)
	}
}
