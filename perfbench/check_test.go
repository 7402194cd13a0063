package main

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/live"
	"repro/internal/stratified"
)

// wireAnswer mirrors the daemon's answer JSON closely enough to corrupt it.
type wireAnswer struct {
	Live   bool `json:"live,omitempty"`
	Strata []struct {
		Count       int      `json:"count"`
		Individuals []string `json:"individuals"`
	} `json:"strata"`
	LiveMeta []map[string]int `json:"live_meta,omitempty"`
}

// fixture returns a population, one of its Small-group queries, and a
// correct answer to it in the daemon's JSON shape.
func fixture(t *testing.T) (*checker, *querySpec, wireAnswer) {
	t.Helper()
	pop := gen.Population(3000, 7)
	groups, err := genGroups(gen.Small, 1, 100, pop, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	q := groups[0][0]
	ans, err := stratified.Sequential(q.ssd, pop, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	var w wireAnswer
	for _, st := range ans.Strata {
		s := make([]string, len(st))
		for i, tu := range st {
			s[i] = tu.String()
		}
		w.Strata = append(w.Strata, struct {
			Count       int      `json:"count"`
			Individuals []string `json:"individuals"`
		}{len(s), s})
	}
	c, err := newChecker(pop)
	if err != nil {
		t.Fatal(err)
	}
	return c, q, w
}

func (w wireAnswer) body(t *testing.T) []byte {
	t.Helper()
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// clone deep-copies the answer so each case corrupts its own.
func (w wireAnswer) clone() wireAnswer {
	out := w
	out.Strata = append(out.Strata[:0:0], w.Strata...)
	for k := range out.Strata {
		out.Strata[k].Individuals = append([]string(nil), w.Strata[k].Individuals...)
	}
	return out
}

// twoFull returns two strata holding at least two individuals each.
func twoFull(t *testing.T, w wireAnswer) (int, int) {
	t.Helper()
	var ks []int
	for k, st := range w.Strata {
		if len(st.Individuals) >= 2 {
			ks = append(ks, k)
		}
	}
	if len(ks) < 2 {
		t.Fatal("fixture answer has fewer than two strata with two individuals")
	}
	return ks[0], ks[1]
}

func TestCheckerAcceptsCorrectAnswer(t *testing.T) {
	c, q, w := fixture(t)
	if _, err := c.checkBody(q, w.body(t), exactCounts(q)); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
}

func TestCheckerCatchesCorruptedAnswers(t *testing.T) {
	c, q, w := fixture(t)
	k, j := twoFull(t, w)
	cases := []struct {
		name    string
		corrupt func(a *wireAnswer)
		want    string
	}{
		{"dropped tuple", func(a *wireAnswer) {
			a.Strata[k].Individuals = a.Strata[k].Individuals[1:]
			a.Strata[k].Count--
		}, "want min"},
		{"count disagrees with individuals", func(a *wireAnswer) {
			a.Strata[k].Count++
		}, "individuals"},
		{"duplicate id", func(a *wireAnswer) {
			a.Strata[k].Individuals[1] = a.Strata[k].Individuals[0]
		}, "repeats"},
		{"out-of-stratum tuple", func(a *wireAnswer) {
			a.Strata[k].Individuals[0] = a.Strata[j].Individuals[0]
		}, "falls in stratum"},
		{"unknown id", func(a *wireAnswer) {
			s := a.Strata[k].Individuals[0]
			a.Strata[k].Individuals[0] = "#999999" + s[strings.IndexAny(s, "(["):]
		}, "not in the population"},
		{"attributes differ from the population", func(a *wireAnswer) {
			var tu dataset.Tuple
			if err := parseIndividual(a.Strata[k].Individuals[0], &tu); err != nil {
				t.Fatal(err)
			}
			tu.ID = (tu.ID + 1) % 3000
			a.Strata[k].Individuals[0] = tu.String()
		}, "differs from the population"},
		{"malformed individual", func(a *wireAnswer) {
			a.Strata[k].Individuals[0] = "author-1"
		}, "malformed"},
		{"missing stratum", func(a *wireAnswer) {
			a.Strata = a.Strata[1:]
		}, "strata in answer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := w.clone()
			tc.corrupt(&a)
			_, err := c.checkBody(q, a.body(t), exactCounts(q))
			if err == nil {
				t.Fatal("corrupted answer passed the check")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCheckerLiveHoles: a warm answer may miss sampled members up to the
// stratum's reported staleness, and its member count must match the
// population's.
func TestCheckerLiveHoles(t *testing.T) {
	c, q, w := fixture(t)
	c.pop = nil
	c.staleness = 64
	k, _ := twoFull(t, w)
	w.Live = true
	for i, st := range w.Strata {
		w.LiveMeta = append(w.LiveMeta, map[string]int{
			"members": q.sizes[i], "sample_size": len(st.Individuals), "staleness": 0})
	}
	counts := exactCounts(q)
	if _, err := c.checkBody(q, w.body(t), counts); err != nil {
		t.Fatalf("correct warm answer rejected: %v", err)
	}

	holed := w.clone()
	holed.LiveMeta = append([]map[string]int(nil), w.LiveMeta...)
	holed.Strata[k].Individuals = holed.Strata[k].Individuals[1:]
	holed.Strata[k].Count--
	holed.LiveMeta[k] = map[string]int{"members": q.sizes[k], "sample_size": holed.Strata[k].Count, "staleness": 1}
	if _, err := c.checkBody(q, holed.body(t), counts); err != nil {
		t.Fatalf("warm answer with one hole and staleness 1 rejected: %v", err)
	}

	holed.LiveMeta[k]["staleness"] = 0
	if _, err := c.checkBody(q, holed.body(t), counts); err == nil {
		t.Fatal("warm answer with a hole and no staleness passed")
	}
	holed.LiveMeta[k] = map[string]int{"members": q.sizes[k] + 1, "sample_size": holed.Strata[k].Count, "staleness": 1}
	if _, err := c.checkBody(q, holed.body(t), counts); err == nil {
		t.Fatal("warm answer reporting a member count the population never had passed")
	}
}

// TestMutationLogTracksStrata applies a generated log to the live subsystem
// directly: no mutation is rejected, and after every batch each stratum's
// live member count equals the size the log tracked.
func TestMutationLogTracksStrata(t *testing.T) {
	pop := gen.Population(4000, 5)
	groups, err := genGroups(gen.Small, 2, 100, pop, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	tracked := flatten(groups)
	log := newMutationLog(pop, tracked, 40, rand.New(rand.NewSource(9)))
	splits, err := dataset.Partition(pop, 4, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := live.NewPopulation(pop.Schema(), splits, live.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range tracked {
		if _, err := lp.Register(q.ssd.Name+string(rune('a'+i)), q.ssd, 1); err != nil {
			t.Fatal(err)
		}
	}
	for b, batch := range log.batches {
		if res := lp.Apply(batch); len(res.Rejected) > 0 || res.Applied != batchOps {
			t.Fatalf("batch %d: applied %d, rejected %v", b, res.Applied, res.Rejected)
		}
		for i, q := range tracked {
			_, metas, _, ok := lp.Snapshot(q.ssd.Name + string(rune('a'+i)))
			if !ok {
				t.Fatal("standing query vanished")
			}
			for k, m := range metas {
				if want := int(log.sizes[b+1][q.slot+k]); m.Members != want {
					t.Fatalf("batch %d, %s stratum %d: %d members, log tracked %d", b, q.ssd.Name, k, m.Members, want)
				}
			}
		}
	}
}

func TestParseIndividual(t *testing.T) {
	var tu dataset.Tuple
	for _, in := range []dataset.Tuple{
		{ID: 12, Name: "author-0000012", Attrs: []int64{1, 2, 3}},
		{ID: 7, Attrs: []int64{4}},
	} {
		if err := parseIndividual(in.String(), &tu); err != nil {
			t.Fatal(err)
		}
		if tu.ID != in.ID || tu.Name != in.Name || !equalAttrs(tu.Attrs, in.Attrs) {
			t.Fatalf("parsed %v from %q", tu, in.String())
		}
	}
	for _, bad := range []string{"", "#[1]", "#x(a)[1]", "#1(a[1]", "#1[1 x]"} {
		if parseIndividual(bad, &tu) == nil {
			t.Fatalf("%q parsed", bad)
		}
	}
}

func TestSelfTime(t *testing.T) {
	iv := func(lo, hi int) interval { return interval{time.Duration(lo), time.Duration(hi)} }
	if got := unionLen([]interval{iv(0, 10), iv(5, 15), iv(20, 30)}); got != 25 {
		t.Fatalf("unionLen = %d, want 25", got)
	}
	if got := selfTime(iv(0, 100), []interval{iv(10, 30), iv(20, 40), iv(90, 120)}); got != 60 {
		t.Fatalf("selfTime = %d, want 60", got)
	}
}
