package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// pollInterval is how long a campaign client waits between polls of a
// pending answer; it must stay well under a tenth of campaign_p50_ms.
const pollInterval = 10 * time.Millisecond

// liveRate is the mutation feed's rate in batches per second.
const liveRate = 750

// readsPerAdhoc: in the live reader, one read in this many is ad-hoc.
const readsPerAdhoc = 10

// phase is what one measured phase observed. Latencies are in milliseconds
// and count only operations that ended inside the phase.
type phase struct {
	// sample: engine-answered queries, submit → answer in hand.
	sample []float64
	// round: one iteration of the workload's loop (campaign: a Medium group;
	// ad-hoc: a call; live: a mutation batch, timed from when it was due).
	round []float64
	// read: calls returning an answer the daemon already held (campaign: the
	// result collection; ad-hoc: the call; live: a warm standing read).
	read []float64
	// late: how late the open-loop feed sent each batch.
	late []float64

	answers int // checked answers that ended inside the phase
	// rate is answers per second: the sum over clients of a client's
	// answers divided by the time to its last one, which removes the
	// quantization of counting whole rounds inside a fixed window.
	rate      float64
	last      time.Time // when this client's last answer ended
	attempted int       // operations started
	failed    int       // operations failed, refused or answered wrongly
	firstErr  error

	polls, collected  int // campaign: result polls that found the answer pending
	warmSent, warmHit int // live: warm reads sent, answered warm
}

// done counts one checked answer that ended at t, inside the phase.
func (p *phase) done(t time.Time) {
	p.answers++
	if t.After(p.last) {
		p.last = t
	}
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// merge folds a client's phase into p.
func (p *phase) merge(q *phase) {
	p.sample = append(p.sample, q.sample...)
	p.round = append(p.round, q.round...)
	p.read = append(p.read, q.read...)
	p.late = append(p.late, q.late...)
	p.answers += q.answers
	p.rate += q.rate
	p.attempted += q.attempted
	p.failed += q.failed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
	p.polls += q.polls
	p.collected += q.collected
	p.warmSent += q.warmSent
	p.warmHit += q.warmHit
}

// runClients runs n client loops until they return and merges their phases.
func runClients(n int, start time.Time, loop func(c int, p *phase)) *phase {
	parts := make([]*phase, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		parts[c] = &phase{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(c, parts[c])
		}()
	}
	wg.Wait()
	out := &phase{}
	for _, p := range parts {
		if p.answers > 0 {
			p.rate = float64(p.answers) / p.last.Sub(start).Seconds()
		}
		out.merge(p)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// driveCampaign: nproc closed-loop clients, each submitting one Medium group
// asynchronously and collecting its six answers before the next.
func driveCampaign(r *runner, d *daemon, deadline time.Time) *phase {
	var next atomic.Int64
	start := time.Now()
	return runClients(nproc, start, func(_ int, p *phase) {
		cl := newClient(d.url, r.rec)
		defer cl.close()
		for time.Now().Before(deadline) {
			g := r.in.groups[int(next.Add(1)-1)%len(r.in.groups)]
			seed := r.in.seeds.next()
			op := r.rec.newID()
			t0 := time.Now()
			ids := make([]string, len(g))
			sent := make([]time.Time, len(g))
			for i, q := range g {
				p.attempted++
				sent[i] = time.Now()
				st, body, err := cl.call(http.MethodPost, "/v1/sample", sampleBody(q.text, seed, false), op)
				var ticket struct{ ID string }
				switch {
				case err != nil:
					p.fail(err)
				case st != http.StatusAccepted:
					p.fail(fmt.Errorf("submit: status %d", st))
				case json.Unmarshal(body, &ticket) != nil || ticket.ID == "":
					p.fail(fmt.Errorf("submit: no ticket in %q", body))
				default:
					ids[i] = ticket.ID
				}
			}
			// Collect every answer first and check them afterwards, so the
			// checking does not delay the next answer's collection.
			bodies := make([][]byte, len(g))
			done := make([]time.Time, len(g))
			for i := range g {
				if ids[i] == "" {
					continue
				}
				for {
					t := time.Now()
					st, body, err := cl.call(http.MethodGet, "/v1/result?id="+ids[i], nil, op)
					if err == nil && st == http.StatusAccepted {
						p.polls++
						time.Sleep(pollInterval)
						continue
					}
					if err != nil {
						p.fail(err)
					} else if st != http.StatusOK {
						p.fail(fmt.Errorf("result: status %d", st))
					} else {
						done[i], bodies[i] = time.Now(), body
						p.collected++
						if done[i].Before(deadline) {
							p.read = append(p.read, ms(done[i].Sub(t)))
						}
					}
					break
				}
			}
			whole := true
			last := t0
			for i, q := range g {
				if bodies[i] == nil {
					whole = false
					continue
				}
				if _, err := r.in.check.checkBody(q, bodies[i], exactCounts(q)); err != nil {
					p.fail(fmt.Errorf("%s: %w", q.ssd.Name, err))
					whole = false
					continue
				}
				if done[i].After(last) {
					last = done[i]
				}
				if done[i].Before(deadline) {
					p.done(done[i])
					p.sample = append(p.sample, ms(done[i].Sub(sent[i])))
				}
			}
			if whole && last.Before(deadline) {
				p.round = append(p.round, ms(last.Sub(t0)))
			}
		}
	})
}

// driveAdhoc: nproc closed-loop clients making blocking single-SSD calls.
func driveAdhoc(r *runner, d *daemon, deadline time.Time) *phase {
	var next atomic.Int64
	start := time.Now()
	return runClients(nproc, start, func(_ int, p *phase) {
		cl := newClient(d.url, r.rec)
		defer cl.close()
		for time.Now().Before(deadline) {
			q := r.in.adhoc[int(next.Add(1)-1)%len(r.in.adhoc)]
			p.attempted++
			t0 := time.Now()
			st, body, err := cl.call(http.MethodPost, "/v1/sample", sampleBody(q.text, r.in.seeds.next(), true), r.rec.newID())
			t1 := time.Now()
			if err == nil && st != http.StatusOK {
				err = fmt.Errorf("sample: status %d", st)
			}
			if err == nil {
				_, err = r.in.check.checkBody(q, body, exactCounts(q))
			}
			if err != nil {
				p.fail(fmt.Errorf("%s: %w", q.ssd.Name, err))
				continue
			}
			if t1.Before(deadline) {
				lat := ms(t1.Sub(t0))
				p.done(t1)
				p.sample = append(p.sample, lat)
				p.round = append(p.round, lat)
				p.read = append(p.read, lat)
			}
		}
	})
}

// driveLive: connection 0 is the open-loop mutation feed, the others a
// closed-loop reader of warm standing reads with one ad-hoc read in ten.
func driveLive(r *runner, d *daemon, deadline time.Time) *phase {
	log := r.in.log
	// sent counts batches whose request has started, acked those answered:
	// a read overlapping them saw the population after some batch in
	// [acked at its start, sent at its end].
	var sent, acked atomic.Int64
	var next atomic.Int64
	start := time.Now()
	return runClients(nproc, start, func(c int, p *phase) {
		cl := newClient(d.url, r.rec)
		defer cl.close()
		if c == 0 {
			interval := time.Second / liveRate
			for i := 0; ; i++ {
				due := start.Add(time.Duration(i) * interval)
				if !due.Before(deadline) || !time.Now().Before(deadline) {
					return
				}
				if i >= len(log.bodies) {
					p.fail(fmt.Errorf("mutation log exhausted after %d batches", i))
					return
				}
				time.Sleep(time.Until(due))
				p.attempted++
				now := time.Now()
				sent.Store(int64(i + 1))
				st, body, err := cl.call(http.MethodPost, "/v1/mutate", log.bodies[i], r.rec.newID())
				end := time.Now()
				var res struct {
					Applied  int   `json:"applied"`
					Rejected []any `json:"rejected"`
				}
				switch {
				case err != nil:
					p.fail(err)
				case st != http.StatusOK:
					p.fail(fmt.Errorf("mutate: status %d", st))
				case json.Unmarshal(body, &res) != nil || res.Applied != batchOps || len(res.Rejected) > 0:
					p.fail(fmt.Errorf("mutate: batch %d not applied whole: %s", i, body))
				default:
					acked.Store(int64(i + 1))
					if end.Before(deadline) {
						p.round = append(p.round, ms(end.Sub(due)))
						p.late = append(p.late, ms(now.Sub(due)))
					}
				}
			}
		}
		for time.Now().Before(deadline) {
			j := next.Add(1) - 1
			adhoc := j%readsPerAdhoc == readsPerAdhoc-1
			q, seed := r.in.standing[0][int(j)%len(r.in.standing[0])], d.standSeed
			if adhoc {
				q, seed = r.in.adhoc[int(j/readsPerAdhoc)%len(r.in.adhoc)], r.in.seeds.next()
			} else {
				p.warmSent++
			}
			p.attempted++
			lo := int(acked.Load())
			t0 := time.Now()
			st, body, err := cl.call(http.MethodPost, "/v1/sample", sampleBody(q.text, seed, true), r.rec.newID())
			t1 := time.Now()
			hi := int(sent.Load())
			if err == nil && st != http.StatusOK {
				err = fmt.Errorf("sample: status %d", st)
			}
			var a *answer
			if err == nil {
				a, err = r.in.check.checkBody(q, body, log.liveCounts(q, lo, hi))
			}
			if err != nil {
				p.fail(fmt.Errorf("%s: %w", q.ssd.Name, err))
				continue
			}
			if !adhoc && a.Live {
				p.warmHit++
			}
			if t1.Before(deadline) {
				p.done(t1)
				if adhoc {
					p.sample = append(p.sample, ms(t1.Sub(t0)))
				} else {
					p.read = append(p.read, ms(t1.Sub(t0)))
				}
			}
		}
	})
}
