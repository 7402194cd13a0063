package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/live"
	"repro/internal/query"
)

// inputs is everything a run generates from its workload seed before the
// daemon exists. The daemon only ever sees the population and the queries
// and mutations sent to it.
type inputs struct {
	pop   *dataset.Relation
	check *checker
	// groups are paper query groups: the campaign pool (Medium groups), or
	// one group whose queries the layer measurements run together.
	groups [][]*querySpec
	// adhoc is the pool of single SSDs the ad-hoc clients draw from.
	adhoc []*querySpec
	// standing holds the live workload's standing query groups, one per
	// set-up repeat; the measured daemon registers standing[0], whose strata
	// the mutation log tracks.
	standing [][]*querySpec
	// log is the live workload's mutation log; the layer measurements of
	// the other workloads apply a short one to a direct live.Population.
	log *mutationLog
	// seeds hands out sampling seeds, one per submission.
	seeds *seedStream
}

// seedStream hands out fresh sampling seeds, safe for concurrent use.
type seedStream struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func (s *seedStream) next() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Int63()
}

// genGroups draws n query groups of shape p, each SSD asking for total
// individuals, and precomputes every stratum's size.
func genGroups(p gen.GroupParams, n, total int, pop *dataset.Relation, rng *rand.Rand) ([][]*querySpec, error) {
	var ssds []*query.SSD
	for g := 0; g < n; g++ {
		qs, err := gen.QueryGroup(p, pop, total, rng)
		if err != nil {
			return nil, err
		}
		ssds = append(ssds, qs...)
	}
	specs := make([]*querySpec, len(ssds))
	errs := make([]error, len(ssds))
	var wg sync.WaitGroup
	next := make(chan int, len(ssds))
	for i := range ssds {
		next <- i
	}
	close(next)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				specs[i], errs[i] = newQuerySpec(ssds[i], pop)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	groups := make([][]*querySpec, n)
	for g := range groups {
		groups[g] = specs[g*p.N : (g+1)*p.N]
	}
	return groups, nil
}

func flatten(groups [][]*querySpec) []*querySpec {
	var out []*querySpec
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// mutationLog is a rejection-free log of fixed-size insert/update/delete
// batches, generated against a model of the population so that the
// benchmark knows every stratum's size after every batch.
type mutationLog struct {
	batches [][]live.Mutation
	bodies  [][]byte // the POST /v1/mutate body of each batch
	// sizes[j] holds, for every tracked query, its stratum sizes after the
	// first j batches (sizes[0] is the initial population); a query's
	// strata start at its querySpec.slot.
	sizes [][]int32
}

const (
	batchInserts = 6
	batchUpdates = 5
	batchDeletes = 5
	batchOps     = batchInserts + batchUpdates + batchDeletes
)

// newMutationLog generates n batches. Inserted and updated tuples copy the
// attributes of a random current member, so strata keep their shape as the
// population churns. Stratum sizes are tracked for the given queries, whose
// slot fields it assigns.
func newMutationLog(pop *dataset.Relation, tracked []*querySpec, n int, rng *rand.Rand) *mutationLog {
	width := 0
	for _, q := range tracked {
		q.slot = width
		width += len(q.ssd.Strata)
	}
	attrs := make([][]int64, pop.Len(), pop.Len()+n*batchInserts)
	for i, t := range pop.Tuples() {
		attrs[i] = t.Attrs
	}
	gone := make([]bool, len(attrs), cap(attrs))
	cur := make([]int32, width)
	for _, q := range tracked {
		for k, s := range q.sizes {
			cur[q.slot+k] = int32(s)
		}
	}
	var probe dataset.Tuple
	move := func(a []int64, d int32) {
		probe.Attrs = a
		for _, q := range tracked {
			if k := query.MatchStratum(q.preds, &probe); k >= 0 {
				cur[q.slot+k] += d
			}
		}
	}
	member := func() int64 {
		for {
			if id := rng.Int63n(int64(len(attrs))); !gone[id] {
				return id
			}
		}
	}
	log := &mutationLog{sizes: [][]int32{append([]int32(nil), cur...)}}
	type wireMut struct {
		Op    string  `json:"op"`
		ID    int64   `json:"id"`
		Attrs []int64 `json:"attrs,omitempty"`
	}
	for b := 0; b < n; b++ {
		batch := make([]live.Mutation, 0, batchOps)
		wire := make([]wireMut, 0, batchOps)
		for i := 0; i < batchInserts; i++ {
			a := attrs[member()]
			id := int64(len(attrs))
			attrs = append(attrs, a)
			gone = append(gone, false)
			move(a, 1)
			batch = append(batch, live.Mutation{Op: live.OpInsert, Tuple: dataset.Tuple{ID: id, Attrs: a}})
			wire = append(wire, wireMut{Op: "insert", ID: id, Attrs: a})
		}
		for i := 0; i < batchUpdates; i++ {
			id, a := member(), attrs[member()]
			move(attrs[id], -1)
			move(a, 1)
			attrs[id] = a
			batch = append(batch, live.Mutation{Op: live.OpUpdate, Tuple: dataset.Tuple{ID: id, Attrs: a}})
			wire = append(wire, wireMut{Op: "update", ID: id, Attrs: a})
		}
		for i := 0; i < batchDeletes; i++ {
			id := member()
			move(attrs[id], -1)
			gone[id] = true
			batch = append(batch, live.Mutation{Op: live.OpDelete, ID: id})
			wire = append(wire, wireMut{Op: "delete", ID: id})
		}
		body, err := json.Marshal(map[string]any{"mutations": wire})
		if err != nil {
			panic(fmt.Sprintf("encoding mutation batch: %v", err)) // plain data always encodes
		}
		log.batches = append(log.batches, batch)
		log.bodies = append(log.bodies, body)
		log.sizes = append(log.sizes, append([]int32(nil), cur...))
	}
	return log
}

// liveCounts is the countRange of a live answer computed while the
// population stood anywhere between batch lo and batch hi of the log.
func (l *mutationLog) liveCounts(q *querySpec, lo, hi int) countRange {
	return func(k int) (int, int) {
		mn, mx := int(l.sizes[lo][q.slot+k]), int(l.sizes[lo][q.slot+k])
		for j := lo + 1; j <= hi && j < len(l.sizes); j++ {
			v := int(l.sizes[j][q.slot+k])
			mn, mx = min(mn, v), max(mx, v)
		}
		return mn, mx
	}
}
