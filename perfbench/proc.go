package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Process counters, read from outside every layer: the kernel's resident-set
// high-water mark, getrusage CPU time, and the Go runtime's metrics.

// resetPeakRSS resets the kernel's resident-set high-water mark (VmHWM) to
// the current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostTicks reads the machine's CPU time stolen by the hypervisor and its
// total CPU time, in clock ticks, from /proc/stat. A noisy neighbour shows as
// steal; it explains run-to-run spread the benchmark cannot remove.
func hostTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i <= 8 && i < len(f); i++ {
		x, _ := strconv.ParseFloat(f[i], 64)
		total += x
		if i == 8 {
			steal = x
		}
	}
	return steal, total
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

// procSample is one reading of the process counters.
type procSample struct {
	cpu                time.Duration
	steal, ticks       float64
	gcCPU, totalCPU    float64
	allocBytes, cycles float64
}

func readProc() procSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		}
	}
	steal, ticks := hostTicks()
	return procSample{cpu: cpuTime(), steal: steal, ticks: ticks, gcCPU: v[0], totalCPU: v[1], allocBytes: v[2], cycles: v[3]}
}

// heapSampler tracks the peak of the live heap (as of the last GC) while it
// runs.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak live heap in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}
