package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/why-not-xai/emigre/internal/eval"
	"github.com/why-not-xai/emigre/internal/hin"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlLatency = "whynot-latency"
	wlServe   = "serve-open"
)

// Request operations.
const (
	opRecommend = "recommend"
	opExplain   = "explain"
	opDiagnose  = "diagnose"
)

var ops = []string{opRecommend, opExplain, opDiagnose}

// Question is one Why-Not question with the configuration it is asked
// under.
type Question struct {
	eval.Scenario
	Cfg eval.MethodSpec
}

// whyNotPanel draws the fixed question panel of the whynot-* workloads:
// scenarios shuffled by the panel seed, the six configurations dealt
// round-robin so each gets the same number of questions. Its size
// scales with the run length, so one pass fills about that long.
func whyNotPanel(w *World, seconds float64) ([]Question, error) {
	spec := w.spec.WhyNot
	var cfgs []eval.MethodSpec
	for _, name := range spec.Configs {
		m, err := methodSpec(name)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, m)
	}
	rng := rand.New(rand.NewSource(spec.PanelSeed))
	order := rng.Perm(len(w.scenarios))
	per := max(1, int(math.Round(seconds*spec.QuestionsPerSecond/float64(len(cfgs)))))
	n := min(per*len(cfgs), len(order))
	panel := make([]Question, n)
	for i := range panel {
		panel[i] = Question{Scenario: w.scenarios[order[i]], Cfg: cfgs[i%len(cfgs)]}
	}
	return panel, nil
}

// zipfUsers returns a sampler of users with Zipf(s) popularity: order
// shuffles which users are popular, draws picks each user.
func zipfUsers(order, draws *rand.Rand, users []hin.NodeID, s float64) func() hin.NodeID {
	ranked := append([]hin.NodeID(nil), users...)
	sort.Slice(ranked, func(i, j int) bool { return ranked[i] < ranked[j] })
	order.Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
	z := rand.NewZipf(draws, s, 1, uint64(len(ranked)-1))
	return func() hin.NodeID { return ranked[z.Uint64()] }
}

// servePanel draws n distinct questions for serve-open's explains (or
// diagnoses), with Zipf-skewed users, from the panel seed. Hot users'
// questions run out first; the draw then moves on to colder users.
func servePanel(w *World, n int, cfgs []eval.MethodSpec, salt int64) []Question {
	rng := rand.New(rand.NewSource(w.spec.WhyNot.PanelSeed + salt))
	byUser := map[hin.NodeID][]eval.Scenario{}
	for _, s := range w.scenarios {
		byUser[s.User] = append(byUser[s.User], s)
	}
	var users []hin.NodeID
	for u := range byUser {
		users = append(users, u)
	}
	draw := zipfUsers(rng, rng, users, w.spec.Serve.ZipfS)
	type key struct {
		u, wni hin.NodeID
		cfg    string
	}
	seen := map[key]bool{}
	out := make([]Question, 0, n)
	for tries := 0; len(out) < n && tries < 1000*n; tries++ {
		u := draw()
		list := byUser[u]
		q := Question{Scenario: list[rng.Intn(len(list))], Cfg: cfgs[len(out)%len(cfgs)]}
		k := key{q.User, q.WNI, q.Cfg.Name}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, q)
	}
	return out
}

// Planned is one open-loop request: what to send and when.
type Planned struct {
	Op   string
	Due  time.Duration // offset from the step start
	User hin.NodeID
	Q    *Question // explain and diagnose only
}

// Step is one rung of the open-loop rate ladder.
type Step struct {
	RPS  float64
	Dur  time.Duration
	Reqs []Planned
}

// mixCounts splits n requests by the mix shares, exactly: each op gets
// its rounded share and recommend takes the remainder.
func mixCounts(n int, mix map[string]float64) map[string]int {
	c := map[string]int{
		opExplain:  int(math.Round(float64(n) * mix[opExplain])),
		opDiagnose: int(math.Round(float64(n) * mix[opDiagnose])),
	}
	c[opRecommend] = max(0, n-c[opExplain]-c[opDiagnose])
	return c
}

// servePlan builds serve-open's ladder from the workload seed. Each
// step holds exactly
// rate × duration requests whose send times are uniform over the step
// — a Poisson process conditioned on its count, so the offered load
// per step is the same on every seed. Explains and diagnoses come from
// fixed panels, each step asking its own slice.
func servePlan(w *World, seed int64, seconds float64) ([]Step, error) {
	spec := w.spec.Serve
	var cfgs []eval.MethodSpec
	for _, name := range spec.ExplainConfigs {
		m, err := methodSpec(name)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, m)
	}
	removeEx, err := methodSpec("remove_ex")
	if err != nil {
		return nil, err
	}
	rates := spec.LadderRPS
	var durs []time.Duration
	for _, share := range spec.LadderTimeShare {
		durs = append(durs, time.Duration(seconds*share*float64(time.Second)))
	}
	var counts []map[string]int
	total := map[string]int{}
	for i, rps := range rates {
		c := mixCounts(int(math.Round(rps*durs[i].Seconds())), spec.Mix)
		counts = append(counts, c)
		for op, n := range c {
			total[op] += n
		}
	}
	explains := servePanel(w, total[opExplain], cfgs, 1)
	diagnoses := servePanel(w, total[opDiagnose], []eval.MethodSpec{removeEx}, 2)
	if len(explains) < total[opExplain] || len(diagnoses) < total[opDiagnose] {
		return nil, fmt.Errorf("serve panel too small: %d/%d explains, %d/%d diagnoses",
			len(explains), total[opExplain], len(diagnoses), total[opDiagnose])
	}
	// Which users are popular is fixed with the panels, so the load
	// each backend gets does not change with the seed; the seed draws
	// the recommend stream from that popularity.
	rng := rand.New(rand.NewSource(seed))
	recUser := zipfUsers(rand.New(rand.NewSource(w.spec.WhyNot.PanelSeed)), rng, w.users, spec.ZipfS)
	var steps []Step
	for i, rps := range rates {
		c := counts[i]
		st := Step{RPS: rps, Dur: durs[i]}
		at := func(r *rand.Rand) time.Duration { return time.Duration(r.Float64() * float64(durs[i])) }
		// Explains and diagnoses follow a fixed schedule per step: a
		// diagnosis can hold a backend's whole admission capacity for
		// seconds, so where the few of them land among the explains
		// would otherwise decide every latency figure of the run. The
		// seed draws the recommend traffic around them.
		fixed := rand.New(rand.NewSource(w.spec.WhyNot.PanelSeed + int64(i)))
		for _, part := range []struct {
			op string
			qs []Question
		}{{opExplain, explains[:c[opExplain]]}, {opDiagnose, diagnoses[:c[opDiagnose]]}} {
			for k := range part.qs {
				st.Reqs = append(st.Reqs, Planned{Op: part.op, Due: at(fixed), Q: &part.qs[k], User: part.qs[k].User})
			}
		}
		explains, diagnoses = explains[c[opExplain]:], diagnoses[c[opDiagnose]:]
		for k := 0; k < c[opRecommend]; k++ {
			st.Reqs = append(st.Reqs, Planned{Op: opRecommend, Due: at(rng), User: recUser()})
		}
		sort.SliceStable(st.Reqs, func(a, b int) bool { return st.Reqs[a].Due < st.Reqs[b].Due })
		steps = append(steps, st)
	}
	return steps, nil
}
