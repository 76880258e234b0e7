package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"extremalcq/internal/engine"
	"extremalcq/internal/fitting"
	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
)

// Job shapes. Each shape belongs to one cost class of its workload; the
// seed changes labels, fact order and (for the random shapes) content,
// never the class.
const (
	shapeExistsN5    = "exists-n5"      // cycles-cold fast: cq/exists, Thm 3.40 family n=5
	shapeConstructN4 = "construct-n4"   // cycles-cold slow: cq/construct on C3·C5·C7
	shapeChain       = "parity-chain"   // parity-search fast: acyclic chain, join-tree path
	shapeCycle       = "parity-cycle19" // parity-search slow: cyclic, backtracking path
	shapeRepeat      = "repeat"         // service-mix fast: a pool cq job answered during set-up
	shapeNovelCQ     = "novel-cq"       // service-mix slow: fresh random cq/construct
	shapeNovelUCQ    = "novel-ucq"      // service-mix slow: fresh random ucq/construct
	shapeStream      = "stream-wmg"     // service-mix slow: streamed weakly-most-general
)

// slowShape reports whether a shape is in its workload's slow class.
func slowShape(s string) bool {
	switch s {
	case shapeConstructN4, shapeCycle, shapeNovelCQ, shapeNovelUCQ, shapeStream:
		return true
	}
	return false
}

// workload fixes everything a run of one workload needs besides the seed.
type workload struct {
	name string
	// block is the class mix of one block of consecutive jobs; every
	// block is a seeded permutation of it, so any whole number of blocks
	// holds the classes in exactly this ratio.
	block []string
	// planLen is the number of generated job descriptors. Cold runs
	// that outlast it wrap around (a fresh engine makes a wrapped job
	// cold again); a service-mix run stops at its end, since a wrapped
	// novel job would be a repeat.
	planLen int
	// minJobs is the least number of jobs a timed run completes, even
	// past its duration, so that at least 10 samples lie beyond the p90.
	minJobs int
	// deadline is every job's timeout; a later answer counts as missed.
	deadline time.Duration
	// service selects the closed-loop, shared-engine runner.
	service bool
}

func workloads() map[string]workload {
	rep := func(s string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = s
		}
		return out
	}
	cat := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	return map[string]workload{
		"cycles-cold": {
			name:     "cycles-cold",
			block:    cat(rep(shapeExistsN5, 3), rep(shapeConstructN4, 1)),
			planLen:  2048,
			minJobs:  120,
			deadline: 30 * time.Second,
		},
		"parity-search": {
			name:     "parity-search",
			block:    cat(rep(shapeChain, 3), rep(shapeCycle, 1)),
			planLen:  512,
			minJobs:  400,
			deadline: 10 * time.Second,
		},
		"service-mix": {
			name:     "service-mix",
			block:    cat(rep(shapeRepeat, 15), rep(shapeNovelCQ, 2), rep(shapeNovelUCQ, 2), rep(shapeStream, 1)),
			planLen:  1 << 15,
			minJobs:  2000,
			deadline: 10 * time.Second,
			service:  true,
		},
	}
}

// desc is one generated job descriptor: everything needed to
// materialize the job deterministically.
type desc struct {
	Shape string
	N     int // parity chain links, or repeat-pool index
	Seed  int64
}

// poolSize is the number of distinct service-mix repeat jobs.
const poolSize = 64

// makePlan generates the seeded job plan of a workload.
func makePlan(w workload, seed int64) []desc {
	rng := rand.New(rand.NewSource(seed))
	plan := make([]desc, 0, w.planLen)
	for len(plan) < w.planLen {
		block := append([]string(nil), w.block...)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, s := range block {
			d := desc{Shape: s, Seed: rng.Int63()}
			switch s {
			case shapeChain:
				d.N = 190 + rng.Intn(21)
			case shapeRepeat:
				d.N = rng.Intn(poolSize)
			}
			plan = append(plan, d)
		}
	}
	return plan[:w.planLen]
}

// atom is one fact in the benchmark's own representation, shared by the
// generators, the text renderer and the verdict oracle.
type atom struct {
	rel  string
	args []string
}

// benchJob is a materialized job.
type benchJob struct {
	d      desc
	schema string
	kind   engine.Kind
	task   engine.Task
	pos    [][]atom
	neg    [][]atom
	stream bool
}

// spec renders the job as the text-level JobSpec the service receives.
func (b *benchJob) spec(deadline time.Duration) engine.JobSpec {
	s := engine.JobSpec{
		Schema:    b.schema,
		Kind:      string(b.kind),
		Task:      string(b.task),
		TimeoutMS: deadline.Milliseconds(),
	}
	for _, ex := range b.pos {
		s.Pos = append(s.Pos, renderFacts(ex))
	}
	for _, ex := range b.neg {
		s.Neg = append(s.Neg, renderFacts(ex))
	}
	return s
}

// job builds the engine job directly from the atoms, without the text
// round trip (the cold workloads hand instances to the engine).
func (b *benchJob) job(deadline time.Duration) (engine.Job, error) {
	sch, err := engine.ParseSchema(b.schema)
	if err != nil {
		return engine.Job{}, err
	}
	toPointed := func(ex []atom) (instance.Pointed, error) {
		in := instance.New(sch)
		for _, a := range ex {
			args := make([]instance.Value, len(a.args))
			for i, v := range a.args {
				args[i] = instance.Value(v)
			}
			if err := in.AddFact(a.rel, args...); err != nil {
				return instance.Pointed{}, err
			}
		}
		return instance.NewPointed(in), nil
	}
	var pos, neg []instance.Pointed
	for _, ex := range b.pos {
		p, err := toPointed(ex)
		if err != nil {
			return engine.Job{}, err
		}
		pos = append(pos, p)
	}
	for _, ex := range b.neg {
		p, err := toPointed(ex)
		if err != nil {
			return engine.Job{}, err
		}
		neg = append(neg, p)
	}
	e, err := fitting.NewExamples(sch, 0, pos, neg)
	if err != nil {
		return engine.Job{}, err
	}
	return engine.Job{Label: b.d.Shape, Kind: b.kind, Task: b.task, Examples: e, Timeout: deadline}, nil
}

func renderFacts(ex []atom) string {
	parts := make([]string, len(ex))
	for i, a := range ex {
		parts[i] = a.rel + "(" + strings.Join(a.args, ",") + ")"
	}
	return strings.Join(parts, ". ")
}

// materializer turns descriptors into jobs; it holds the service-mix
// repeat pool, which is derived from the run seed.
type materializer struct {
	pool []*benchJob
}

func newMaterializer(w workload, seed int64) *materializer {
	m := &materializer{}
	if w.service {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < poolSize; i++ {
			m.pool = append(m.pool, m.materialize(desc{Shape: shapeNovelCQ, Seed: rng.Int63()}))
		}
	}
	return m
}

func (m *materializer) materialize(d desc) *benchJob {
	rng := rand.New(rand.NewSource(d.Seed))
	b := &benchJob{d: d, schema: "R/2", kind: engine.KindCQ}
	switch d.Shape {
	case shapeExistsN5, shapeConstructN4:
		n := 5
		b.task = engine.TaskExists
		if d.Shape == shapeConstructN4 {
			n, b.task = 4, engine.TaskConstruct
		}
		pos, neg := genex.PrimeCycleFamily(n)
		b.pos, b.neg = relabel(rng, toAtoms(pos), toAtoms(neg))
	case shapeChain, shapeCycle:
		b.schema, b.task = "T/4,P/2,A/2", engine.TaskExists
		src := genex.ParityCycle(19)
		if d.Shape == shapeChain {
			src = genex.ParityChain(d.N)
		}
		b.pos, b.neg = relabel(rng, toAtoms([]instance.Pointed{src}), toAtoms([]instance.Pointed{genex.ParityTarget()}))
	case shapeRepeat:
		p := *m.pool[d.N]
		p.d = d
		return &p
	case shapeNovelCQ, shapeNovelUCQ:
		b.schema, b.task = "R/2,P/1", engine.TaskConstruct
		prefix := "j" + strconv.FormatInt(d.Seed%(1<<40), 36) + "_"
		// Two positives over 4 values keep the product at 16 values,
		// where coring stayed under 25 ms in 60000 draws. Larger
		// products (25 values: two positives over 5; 64: three over 4)
		// hit core or hom searches of 20 s and more about once in
		// 20000-50000 draws, which would stall a client past any
		// deadline.
		npos, pdom, nneg := 2, 4, 4
		if d.Shape == shapeNovelUCQ {
			b.kind = engine.KindUCQ
			npos, pdom, nneg = 14, 5, 6
		}
		for i := 0; i < npos; i++ {
			b.pos = append(b.pos, randomExample(rng, prefix+"p"+strconv.Itoa(i), pdom, 2, 6))
		}
		for i := 0; i < nneg; i++ {
			b.neg = append(b.neg, randomExample(rng, prefix+"n"+strconv.Itoa(i), 3, 1, 3))
		}
	case shapeStream:
		// Example 3.10(2): E- = {P(c), Q(c)}, a basis of two weakly
		// most-general fittings. The seeded constant makes every
		// stream a fresh computation for the memo and the store.
		c := "c" + strconv.FormatInt(d.Seed%(1<<40), 36)
		b.schema, b.task, b.stream = "R/2,P/1,Q/1", engine.TaskWeaklyMostGeneral, true
		b.neg = [][]atom{{{rel: "P", args: []string{c}}}, {{rel: "Q", args: []string{c}}}}
	default:
		panic("unknown shape " + d.Shape)
	}
	return b
}

// randomExample draws nP distinct unary P facts and nR distinct binary R
// facts over a domain of dom values.
func randomExample(rng *rand.Rand, prefix string, dom, nP, nR int) []atom {
	v := func() string { return prefix + "_" + strconv.Itoa(rng.Intn(dom)) }
	seen := map[string]bool{}
	var out []atom
	add := func(a atom) bool {
		k := a.rel + "(" + strings.Join(a.args, ",") + ")"
		if seen[k] {
			return false
		}
		seen[k] = true
		out = append(out, a)
		return true
	}
	for n := 0; n < nP; {
		if add(atom{rel: "P", args: []string{v()}}) {
			n++
		}
	}
	for n := 0; n < nR; {
		if add(atom{rel: "R", args: []string{v(), v()}}) {
			n++
		}
	}
	return out
}

func toAtoms(ps []instance.Pointed) [][]atom {
	out := make([][]atom, len(ps))
	for i, p := range ps {
		for _, f := range p.I.Facts() {
			a := atom{rel: f.Rel}
			for _, v := range f.Args {
				a.args = append(a.args, string(v))
			}
			out[i] = append(out[i], a)
		}
	}
	return out
}

// relabel renames every value through one seeded bijection onto fresh
// names and permutes the fact order of every example, so each job is an
// isomorphic copy of its family member. The bijection keeps the names'
// sort order: the solver visits values in name order, and an arbitrary
// renaming of ParityCycle(19) moves its search from ~8k nodes to past
// any deadline, which would break the cost class of the job.
func relabel(rng *rand.Rand, pos, neg [][]atom) ([][]atom, [][]atom) {
	set := map[string]bool{}
	for _, side := range [][][]atom{pos, neg} {
		for _, ex := range side {
			for _, a := range ex {
				for _, v := range a.args {
					set[v] = true
				}
			}
		}
	}
	vals := make([]string, 0, len(set))
	for v := range set {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	ids := map[int]bool{}
	for len(ids) < len(vals) {
		ids[rng.Intn(1_000_000_000)] = true
	}
	fresh := make([]int, 0, len(ids))
	for id := range ids {
		fresh = append(fresh, id)
	}
	sort.Ints(fresh)
	name := make(map[string]string, len(vals))
	for i, v := range vals {
		name[v] = fmt.Sprintf("v%09d", fresh[i])
	}
	conv := func(side [][]atom) [][]atom {
		out := make([][]atom, len(side))
		for i, ex := range side {
			cp := make([]atom, len(ex))
			for j, a := range ex {
				args := make([]string, len(a.args))
				for k, v := range a.args {
					args[k] = name[v]
				}
				cp[j] = atom{rel: a.rel, args: args}
			}
			rng.Shuffle(len(cp), func(x, y int) { cp[x], cp[y] = cp[y], cp[x] })
			out[i] = cp
		}
		return out
	}
	return conv(pos), conv(neg)
}

// planDigest materializes every job of the plan and hashes its text, so
// two runs with one seed can be seen to run the same jobs. Jobs the cold
// workloads hand to the engine as instances are also built here.
func planDigest(w workload, m *materializer, plan []desc) (string, error) {
	h := sha256.New()
	for _, d := range plan {
		b := m.materialize(d)
		s := b.spec(w.deadline)
		fmt.Fprintf(h, "%s|%s|%s|%s|%d\n", d.Shape, s.Schema, s.Kind, s.Task, s.TimeoutMS)
		for _, t := range s.Pos {
			fmt.Fprintf(h, "+%s\n", t)
		}
		for _, t := range s.Neg {
			fmt.Fprintf(h, "-%s\n", t)
		}
		if !w.service {
			if _, err := b.job(w.deadline); err != nil {
				return "", fmt.Errorf("%s seed %d: %w", d.Shape, d.Seed, err)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
