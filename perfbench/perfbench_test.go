package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"extremalcq/internal/engine"
	"extremalcq/internal/fitting"
	"extremalcq/internal/ucqfit"
)

// deterministicCounters are the explain-report counters that must repeat
// exactly when a job is rerun.
var deterministicCounters = []string{
	"product_facts", "hom_searches", "dispatch_jointree", "dispatch_backtrack",
	"core_retractions", "hom_nodes", "hom_backtracks", "hom_prunings",
	"jointree_nodes", "semijoin_reductions",
}

// tracedCounters runs the first block of a cold workload traced, replays
// every job (which cross-checks it against the engine and its cost
// class), and returns each job's deterministic counters.
func tracedCounters(t *testing.T, name string, seed int64) []string {
	t.Helper()
	ctx := context.Background()
	w := workloads()[name]
	s, err := setup(ctx, w, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	p := s.runPhase(ctx, time.Hour, 0, len(w.block), traceAll)
	if _, wrong, first := s.verify(p.samples); wrong > 0 {
		t.Fatalf("%s seed %d: %d wrong verdicts, first: %s", name, seed, wrong, first)
	}
	var out []string
	for _, smp := range p.samples {
		if _, err := s.replay(ctx, smp, nil); err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		line := smp.d.Shape
		for _, c := range deterministicCounters {
			line += fmt.Sprintf(" %s=%d", c, counter(smp.res.Trace, c))
		}
		out = append(out, line)
	}
	return out
}

// TestCountersRepeat runs one block of each cold workload twice with one
// seed and requires identical deterministic counters, then runs another
// seed, whose jobs must stay in their cost classes (replay checks each
// job's class signature).
func TestCountersRepeat(t *testing.T) {
	for _, name := range []string{"cycles-cold", "parity-search"} {
		a := tracedCounters(t, name, 1)
		b := tracedCounters(t, name, 1)
		if len(a) != len(b) {
			t.Fatalf("%s: %d jobs, then %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s job %d:\n first %s\nsecond %s", name, i, a[i], b[i])
			}
		}
		tracedCounters(t, name, 2)
	}
}

// TestPlanDigestRepeats checks that a seed fixes the generated jobs.
func TestPlanDigestRepeats(t *testing.T) {
	for name, w := range workloads() {
		w.planLen = 64
		digest := func(seed int64) string {
			d, err := planDigest(w, newMaterializer(w, seed), makePlan(w, seed))
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		d1, d2, d3 := digest(7), digest(7), digest(8)
		if d1 != d2 || d1 == d3 {
			t.Errorf("%s: digests %s, %s (same seed), %s (other seed)", name, d1, d2, d3)
		}
	}
}

// TestBruteForceAgreesWithSolver checks the oracle against the solver on
// the random service-mix shapes, both verdicts included.
func TestBruteForceAgreesWithSolver(t *testing.T) {
	w := workloads()["service-mix"]
	m := newMaterializer(w, 3)
	seen := map[bool]int{}
	for i := 0; i < 60; i++ {
		shape := shapeNovelCQ
		if i%2 == 1 {
			shape = shapeNovelUCQ
		}
		b := m.materialize(desc{Shape: shape, Seed: int64(1000 + i)})
		j, err := b.job(w.deadline)
		if err != nil {
			t.Fatal(err)
		}
		var want bool
		if b.kind == engine.KindCQ {
			want, err = fitting.Exists(j.Examples)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			want = ucqfit.Exists(j.Examples)
		}
		got, err := bruteFits(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s seed %d: brute force %v, solver %v", shape, 1000+i, got, want)
		}
		seen[got]++
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Errorf("verdicts not mixed: %v", seen)
	}
}

func TestBruteHom(t *testing.T) {
	cycle := func(n int) []atom {
		var out []atom
		for i := 0; i < n; i++ {
			out = append(out, atom{rel: "R", args: []string{fmt.Sprint("c", i), fmt.Sprint("c", (i+1)%n)}})
		}
		return out
	}
	loop := []atom{{rel: "R", args: []string{"a", "a"}}}
	for _, tc := range []struct {
		name     string
		src, dst []atom
		want     bool
	}{
		{"C3 to C2", cycle(3), cycle(2), false},
		{"C4 to C2", cycle(4), cycle(2), true},
		{"C6 to C3", cycle(6), cycle(3), true},
		{"loop to C2", loop, cycle(2), false},
		{"C5 to loop", cycle(5), loop, true},
		{"C15 product to C2", product(cycle(3), cycle(5)), cycle(2), false},
	} {
		got, err := bruteHom(tc.src, tc.dst)
		if err != nil || got != tc.want {
			t.Errorf("%s: got %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
}

func TestCheckDirectedCycle(t *testing.T) {
	ok := "q() :- R(⟨a,b⟩,⟨c,d⟩) ∧ R(⟨c,d⟩,⟨e,f⟩) ∧ R(⟨e,f⟩,⟨a,b⟩)"
	if err := checkDirectedCycle(ok, 3); err != nil {
		t.Errorf("3-cycle rejected: %v", err)
	}
	two := "q() :- R(x,y) ∧ R(y,x) ∧ R(u,v) ∧ R(v,u)"
	if err := checkDirectedCycle(two, 4); err == nil {
		t.Error("two 2-cycles accepted as a 4-cycle")
	}
}

func TestCheckClasses(t *testing.T) {
	mk := func(fast, slow []float64) []sample {
		var out []sample
		for _, v := range fast {
			out = append(out, sample{d: desc{Shape: shapeChain}, lat: time.Duration(v * float64(time.Millisecond))})
		}
		for _, v := range slow {
			out = append(out, sample{d: desc{Shape: shapeCycle}, lat: time.Duration(v * float64(time.Millisecond))})
		}
		return out
	}
	spread := func(n int, lo, hi float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		return out
	}
	if err := checkClasses(mk(spread(150, 4, 6), spread(50, 60, 90))); err != nil {
		t.Errorf("separated classes rejected: %v", err)
	}
	// Overlapping classes put the p50 above the slow class's p25.
	if err := checkClasses(mk(spread(150, 4, 80), spread(50, 5, 90))); err == nil {
		t.Error("overlapping classes accepted")
	}
	if err := checkClasses(mk(spread(30, 4, 6), spread(10, 60, 90))); err == nil {
		t.Error("a run with 4 samples beyond the p90 accepted")
	}
}
