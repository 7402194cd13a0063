package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/predicate"
	"repro/internal/query"
)

// querySpec is one generated SSD together with everything the checker needs
// to judge an answer to it.
type querySpec struct {
	ssd   *query.SSD
	text  string // the "cond : freq ; ..." form sent to the daemon
	preds []predicate.Pred
	// sizes[k] is |σ_φk(R)| over the population handed to the daemon,
	// counted with query.BatchClassifier at input generation.
	sizes []int
	// slot is the query's offset into a mutation log's per-batch stratum
	// sizes (live workloads only).
	slot int
}

func newQuerySpec(q *query.SSD, pop *dataset.Relation) (*querySpec, error) {
	preds, err := q.Compile(pop.Schema())
	if err != nil {
		return nil, err
	}
	parts := make([]string, len(q.Strata))
	for k, s := range q.Strata {
		parts[k] = fmt.Sprintf("%s : %d", s.Cond, s.Freq)
	}
	qs := &querySpec{ssd: q, text: strings.Join(parts, " ; "), preds: preds}
	qs.sizes, err = stratumSizes(q, pop.Schema(), pop.Tuples())
	return qs, err
}

// stratumSizes counts the tuples of each stratum with the program's own batch
// classifier.
func stratumSizes(q *query.SSD, schema *dataset.Schema, ts []dataset.Tuple) ([]int, error) {
	c, err := query.NewBatchClassifier(q, schema)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(q.Strata))
	for _, k := range c.ClassifyTuples(ts, nil) {
		if k >= 0 {
			sizes[k]++
		}
	}
	return sizes, nil
}

// answer is the part of a /v1/sample or /v1/result body the checker reads.
type answer struct {
	Live   bool `json:"live"`
	Strata []struct {
		Count       int      `json:"count"`
		Individuals []string `json:"individuals"`
	} `json:"strata"`
	LiveMeta []struct {
		Members    int `json:"members"`
		SampleSize int `json:"sample_size"`
		Staleness  int `json:"staleness"`
	} `json:"live_meta"`
}

// countRange bounds the member count of stratum k while the answer was
// computed: the benchmark knows it exactly outside live mode, and to within
// the mutation batches in flight during the request in live mode.
type countRange func(k int) (lo, hi int)

// checker judges answers against the generated population.
type checker struct {
	schema *dataset.Schema
	// pop indexes the population by ID for the existence check; nil in live
	// mode, where members come and go.
	pop []dataset.Tuple
	// staleness is the live staleness bound, which a warm answer's reported
	// per-stratum staleness may not exceed.
	staleness int
}

// newChecker indexes pop by ID. The generator numbers individuals 0..n-1,
// which the index relies on.
func newChecker(pop *dataset.Relation) (*checker, error) {
	ts := pop.Tuples()
	for i := range ts {
		if ts[i].ID != int64(i) {
			return nil, fmt.Errorf("check: tuple %d has id %d; ids must be dense", i, ts[i].ID)
		}
	}
	return &checker{schema: pop.Schema(), pop: ts}, nil
}

// checkBody decodes an answer body and checks it.
func (c *checker) checkBody(q *querySpec, body []byte, counts countRange) (*answer, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	return &a, c.check(q, &a, counts)
}

// check applies the four answer checks: per-stratum count, stratum
// membership of every individual, no repeated ID, and (outside live mode)
// existence in the population with the same attributes. A warm live answer
// is the exception to the count rule: deleting a sampled member leaves a
// hole until an insert compensates or a repair rescans, so its count may sit
// below min(|σ|, f) by at most the stratum's reported staleness, which in
// turn never exceeds the staleness bound.
func (c *checker) check(q *querySpec, a *answer, counts countRange) error {
	if len(a.Strata) != len(q.ssd.Strata) {
		return fmt.Errorf("%d strata in answer, query has %d", len(a.Strata), len(q.ssd.Strata))
	}
	if a.Live && len(a.LiveMeta) != len(a.Strata) {
		return fmt.Errorf("live answer has %d stratum metas for %d strata", len(a.LiveMeta), len(a.Strata))
	}
	seen := make(map[int64]struct{}, 64)
	var t dataset.Tuple
	for k, st := range a.Strata {
		f := q.ssd.Strata[k].Freq
		n := len(st.Individuals)
		if st.Count != n {
			return fmt.Errorf("stratum %d: count %d but %d individuals", k+1, st.Count, n)
		}
		lo, hi := counts(k)
		want := func(members int) int { return min(members, f) }
		if a.Live {
			m := a.LiveMeta[k]
			if m.Members < lo || m.Members > hi {
				return fmt.Errorf("stratum %d: %d members reported, population had %d..%d", k+1, m.Members, lo, hi)
			}
			if m.SampleSize != n || m.Staleness < 0 || (c.staleness > 0 && m.Staleness > c.staleness) {
				return fmt.Errorf("stratum %d: meta %+v for %d individuals (staleness bound %d)", k+1, m, n, c.staleness)
			}
			if n > want(m.Members) || n < want(m.Members)-m.Staleness {
				return fmt.Errorf("stratum %d: %d individuals, want %d less at most %d holes", k+1, n, want(m.Members), m.Staleness)
			}
		} else if n < want(lo) || n > want(hi) {
			return fmt.Errorf("stratum %d: %d individuals, want min(|σ|=%d..%d, f=%d)", k+1, n, lo, hi, f)
		}
		for _, s := range st.Individuals {
			if err := parseIndividual(s, &t); err != nil {
				return fmt.Errorf("stratum %d: %w", k+1, err)
			}
			if len(t.Attrs) != c.schema.NumFields() {
				return fmt.Errorf("stratum %d: %q has %d attributes, schema has %d", k+1, s, len(t.Attrs), c.schema.NumFields())
			}
			if got := query.MatchStratum(q.preds, &t); got != k {
				return fmt.Errorf("stratum %d: %q falls in stratum %d", k+1, s, got+1)
			}
			if _, dup := seen[t.ID]; dup {
				return fmt.Errorf("stratum %d: id %d repeats", k+1, t.ID)
			}
			seen[t.ID] = struct{}{}
			if c.pop != nil && !a.Live {
				if t.ID < 0 || t.ID >= int64(len(c.pop)) {
					return fmt.Errorf("stratum %d: id %d is not in the population", k+1, t.ID)
				}
				if !equalAttrs(c.pop[t.ID].Attrs, t.Attrs) {
					return fmt.Errorf("stratum %d: %q differs from the population's %v", k+1, s, c.pop[t.ID])
				}
			}
		}
	}
	return nil
}

// exactCounts is the countRange of a static population.
func exactCounts(q *querySpec) countRange {
	return func(k int) (int, int) { return q.sizes[k], q.sizes[k] }
}

func equalAttrs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// parseIndividual parses the daemon's rendering of a tuple, "#id(name)[a b c]"
// (dataset.Tuple.String), into t, reusing t.Attrs.
func parseIndividual(s string, t *dataset.Tuple) error {
	bad := func() error { return fmt.Errorf("malformed individual %q", s) }
	if len(s) < 4 || s[0] != '#' || s[len(s)-1] != ']' {
		return bad()
	}
	open := strings.IndexByte(s, '[')
	if open < 0 {
		return bad()
	}
	head := s[1:open]
	if p := strings.IndexByte(head, '('); p >= 0 {
		if head[len(head)-1] != ')' {
			return bad()
		}
		t.Name = head[p+1 : len(head)-1]
		head = head[:p]
	} else {
		t.Name = ""
	}
	id, err := strconv.ParseInt(head, 10, 64)
	if err != nil {
		return bad()
	}
	t.ID = id
	t.Attrs = t.Attrs[:0]
	for _, f := range strings.Fields(s[open+1 : len(s)-1]) {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return bad()
		}
		t.Attrs = append(t.Attrs, v)
	}
	return nil
}
