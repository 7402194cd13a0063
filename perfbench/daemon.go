package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/serve"
	"repro/internal/worker"
)

// daemon is one strata serve daemon hosted in this process on a loopback
// listener, configured as the CLI's defaults configure it.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
	tcp    *worker.TCPExecutor
	// tracer collects the daemon's and the engine's spans in the traced run.
	tracer *mapreduce.MemTracer

	metMu  sync.Mutex
	passes []mapreduce.Metrics // per-pass engine metrics, via Config.OnMetrics

	setup     time.Duration // population handed over → ready
	newServer time.Duration // serve.NewServer alone
	standSeed int64         // sampling seed of the standing queries
}

// startDaemon builds a ready daemon for the workload: tcp workers joined,
// standing queries registered and one warm-up pass answered. Its setup field
// is the whole time that took. The variant picks the standing group and the
// warm-up query.
func startDaemon(w *workload, in *inputs, seed int64, variant int, rec *recorder, traced bool) (*daemon, error) {
	d := &daemon{}
	if traced {
		d.tracer = mapreduce.NewMemTracer()
	}
	start := time.Now()
	if w.tcp {
		_, err := rec.timed("setup.worker_join", func() error {
			var err error
			d.tcp, err = worker.NewTCPExecutor(worker.TCPConfig{})
			if err != nil {
				return err
			}
			d.tcp.SpawnLocal(nproc)
			return d.tcp.AwaitWorkers(nproc, time.Minute)
		})
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("starting tcp workers: %w", err)
		}
	}
	cfg := serve.Config{
		Population:     in.pop,
		Slaves:         daemonSlaves,
		Layout:         dataset.Contiguous,
		PartitionSeed:  seed,
		Window:         daemonWindow,
		AdaptiveWindow: true,
		Live:           w.live,
		NewCluster: func(slaves int) *mapreduce.Cluster {
			c := mapreduce.NewCluster(slaves)
			if d.tcp != nil {
				c.Executor = d.tcp
			}
			if d.tracer != nil {
				c.Tracer = d.tracer
			}
			return c
		},
		OnMetrics: func(m mapreduce.Metrics) {
			d.metMu.Lock()
			d.passes = append(d.passes, m)
			d.metMu.Unlock()
		},
	}
	if d.tracer != nil {
		cfg.Tracer = d.tracer
	}
	var err error
	d.newServer, err = rec.timed("setup.new_server", func() error {
		d.srv, err = serve.NewServer(cfg)
		return err
	})
	if err != nil {
		d.stop()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.stop()
		return nil, err
	}
	d.hs = &http.Server{Handler: d.srv.Handler(), ReadHeaderTimeout: time.Minute}
	d.url = "http://" + ln.Addr().String()
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()

	cl := newClient(d.url, rec)
	defer cl.close()
	if w.live {
		d.standSeed = in.seeds.next()
		for _, q := range in.standing[variant%len(in.standing)] {
			_, err := rec.timed("setup.subscribe", func() error {
				// A timer trigger: the daemon pushes each standing query's
				// latest answer once a second when it changed.
				body, _ := json.Marshal(map[string]any{"query": q.text, "seed": d.standSeed, "every_seconds": 1})
				return cl.expect(http.MethodPost, "/v1/subscribe", body, http.StatusOK, nil)
			})
			if err != nil {
				d.stop()
				return nil, fmt.Errorf("subscribing: %w", err)
			}
		}
	}
	// One warm-up pass, answered and checked: an ad-hoc query, or the first
	// query of a group.
	q := in.groups[variant%len(in.groups)][0]
	if len(in.adhoc) > 0 {
		q = in.adhoc[variant%len(in.adhoc)]
	}
	_, err = rec.timed("setup.warmup", func() error {
		var body []byte
		if err := cl.expect(http.MethodPost, "/v1/sample", sampleBody(q.text, in.seeds.next(), true), http.StatusOK, &body); err != nil {
			return err
		}
		_, err := in.check.checkBody(q, body, exactCounts(q))
		return err
	})
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	d.setup = time.Since(start)
	return d, nil
}

// stop drains the daemon, closes its listener and workers, and waits for
// every goroutine it started.
func (d *daemon) stop() {
	if d.srv != nil {
		d.srv.BeginDrain()
	}
	if d.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_ = d.hs.Shutdown(ctx) // a timeout leaves nothing of ours to wait for
		cancel()
		if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("warning: http server: %v\n", err)
		}
	}
	if d.srv != nil {
		d.srv.Drain()
	}
	if d.tcp != nil {
		if err := d.tcp.Close(); err != nil {
			fmt.Printf("warning: closing tcp workers: %v\n", err)
		}
	}
}

// stats reads /v1/stats.
func (d *daemon) stats() (serve.Snapshot, error) {
	var snap serve.Snapshot
	var body []byte
	cl := newClient(d.url, nil)
	defer cl.close()
	if err := cl.expect(http.MethodGet, "/v1/stats", nil, http.StatusOK, &body); err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(body, &snap)
}

// passMetrics returns the engine metrics of every pass so far.
func (d *daemon) passMetrics() []mapreduce.Metrics {
	d.metMu.Lock()
	defer d.metMu.Unlock()
	return append([]mapreduce.Metrics(nil), d.passes...)
}

// client is one load-generator connection: its transport holds at most one
// connection, so the number of clients bounds the connections.
type client struct {
	base string
	hc   *http.Client
	rec  *recorder
}

func newClient(base string, rec *recorder) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, rec: rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and reads the whole body. In the traced run it
// records a span named after the path and tags the request with a trace id
// that joins it to the daemon's spans.
func (c *client) call(method, path string, body []byte, op uint64) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	var trace string
	if c.rec != nil {
		trace = "bench-" + strconv.FormatUint(c.rec.newID(), 16)
		req.Header.Set("X-Strata-Trace", trace)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.rec.record("http "+method+" "+pathOnly(path), op, 0, trace, start, time.Now())
	return resp.StatusCode, out, err
}

// expect makes a call that must answer with the given status; body, when
// non-nil, receives the response.
func (c *client) expect(method, path string, reqBody []byte, status int, body *[]byte) error {
	st, out, err := c.call(method, path, reqBody, c.rec.newID())
	if err != nil {
		return err
	}
	if st != status {
		return fmt.Errorf("%s %s: status %d: %s", method, path, st, bytes.TrimSpace(out))
	}
	if body != nil {
		*body = out
	}
	return nil
}

func pathOnly(p string) string {
	path, _, _ := strings.Cut(p, "?")
	return path
}

// sampleBody is a POST /v1/sample body; nocache is always set so every
// answer comes from an engine pass or a standing query, never the cache.
func sampleBody(text string, seed int64, wait bool) []byte {
	req := map[string]any{"query": text, "seed": seed, "nocache": true}
	if !wait {
		req["wait"] = false
	}
	b, _ := json.Marshal(req) // plain data always encodes
	return b
}
