package main

import (
	"fmt"
	"math/bits"
	"regexp"
	"sort"
	"strings"

	"extremalcq/internal/engine"
)

// The verdict oracle checks every answer without calling the solver.
// The paper's and genex's families have known answers; the small random
// service-mix jobs are decided by brute force over the benchmark's own
// atom representation: a direct product, then a search over every
// assignment of source values to target values.

// bruteNodeBudget bounds one brute-force search; the random shapes stay
// orders of magnitude below it, so hitting it means the generator drifted.
const bruteNodeBudget = 1_000_000

// verdict checks one engine result against the oracle; a non-nil error
// describes the mismatch. fits decides the small random shapes (bruteFits,
// possibly memoized).
func verdict(b *benchJob, res engine.Result, frames []string, fits func(*benchJob) (bool, error)) error {
	if res.Err != nil {
		return fmt.Errorf("engine error: %v", res.Err)
	}
	switch b.d.Shape {
	case shapeExistsN5, shapeChain, shapeCycle:
		// Thm 3.40: the product of C3,C5,C7,C11 is an odd cycle, which
		// has no homomorphism to C2. genex parity: P fixes parity 1 at
		// the chain's start, every T link keeps it and A demands 0, so
		// neither the chain nor the cycle maps to ParityTarget.
		return wantFound(res, true)
	case shapeConstructN4:
		if err := wantFound(res, true); err != nil {
			return err
		}
		// C3·C5·C7 is the directed 105-cycle, which is its own core.
		if len(res.Queries) != 1 {
			return fmt.Errorf("want 1 query, got %d", len(res.Queries))
		}
		return checkDirectedCycle(res.Queries[0], 105)
	case shapeRepeat, shapeNovelCQ, shapeNovelUCQ:
		want, err := fits(b)
		if err != nil {
			return err
		}
		if err := wantFound(res, want); err != nil {
			return err
		}
		if want && len(res.Queries) != 1 {
			return fmt.Errorf("want 1 query, got %d", len(res.Queries))
		}
		return nil
	case shapeStream:
		// Example 3.10(2): the two weakly most-general fittings are
		// q() :- R(x,y) and q() :- P(x) ∧ Q(y).
		if err := wantFound(res, true); err != nil {
			return err
		}
		got := make([]string, len(frames))
		for i, f := range frames {
			got[i] = relationSignature(f)
		}
		sort.Strings(got)
		if strings.Join(got, " ") != "P,Q R" {
			return fmt.Errorf("want answers {R} and {P,Q}, got %q", frames)
		}
		return nil
	}
	return fmt.Errorf("no oracle for shape %s", b.d.Shape)
}

func wantFound(res engine.Result, want bool) error {
	if res.Found != want {
		return fmt.Errorf("found=%v, want %v", res.Found, want)
	}
	return nil
}

var atomRE = regexp.MustCompile(`([A-Za-z]+)\(([^()]*)\)`)

// relationSignature lists the sorted relation names of a query's atoms.
func relationSignature(q string) string {
	_, body, _ := strings.Cut(q, ":-")
	var rels []string
	for _, m := range atomRE.FindAllStringSubmatch(body, -1) {
		rels = append(rels, m[1])
	}
	sort.Strings(rels)
	return strings.Join(rels, ",")
}

// checkDirectedCycle checks that a boolean query's body is one directed
// R-cycle of length n.
func checkDirectedCycle(q string, n int) error {
	_, body, ok := strings.Cut(q, ":-")
	if !ok {
		return fmt.Errorf("not a query: %.60q", q)
	}
	succ := map[string]string{}
	indeg := map[string]int{}
	for _, m := range atomRE.FindAllStringSubmatch(body, -1) {
		args := splitArgs(m[2])
		if m[1] != "R" || len(args) != 2 {
			return fmt.Errorf("unexpected atom %s", m[0])
		}
		x, y := strings.TrimSpace(args[0]), strings.TrimSpace(args[1])
		if _, dup := succ[x]; dup {
			return fmt.Errorf("variable %s has two successors", x)
		}
		succ[x] = y
		indeg[y]++
	}
	if len(succ) != n || len(indeg) != n {
		return fmt.Errorf("want %d atoms on %d variables, got %d atoms", n, n, len(succ))
	}
	var start string
	for x := range succ {
		start = x
		break
	}
	steps, x := 0, start
	for {
		x = succ[x]
		steps++
		if x == start || steps > n {
			break
		}
	}
	if steps != n {
		return fmt.Errorf("body is not a single %d-cycle", n)
	}
	return nil
}

// splitArgs splits an atom's argument list at the commas outside the
// ⟨…⟩ brackets of product values.
func splitArgs(s string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '⟨':
			depth++
		case '⟩':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// bruteFits decides the existence verdict of a small arity-0 job from
// the definitions: a fitting CQ exists iff the product of the positives
// maps to no negative (Thm 3.3); a fitting UCQ exists iff no positive
// maps to a negative (Prop 4.2).
func bruteFits(b *benchJob) (bool, error) {
	var sources [][]atom
	if b.kind == engine.KindCQ {
		prod := b.pos[0]
		for _, p := range b.pos[1:] {
			prod = product(prod, p)
		}
		sources = [][]atom{prod}
	} else {
		sources = b.pos
	}
	for _, src := range sources {
		for _, n := range b.neg {
			ok, err := bruteHom(src, n)
			if err != nil {
				return false, err
			}
			if ok {
				return false, nil
			}
		}
	}
	return true, nil
}

// product is the direct product of two atom sets: R(⟨a1,b1⟩,…) for
// every pair of R-atoms.
func product(a, b []atom) []atom {
	var out []atom
	for _, x := range a {
		for _, y := range b {
			if x.rel != y.rel {
				continue
			}
			args := make([]string, len(x.args))
			for i := range args {
				args[i] = x.args[i] + "|" + y.args[i]
			}
			out = append(out, atom{rel: x.rel, args: args})
		}
	}
	return out
}

// bruteHom reports whether some assignment of the source's values to the
// target's values maps every source atom to a target atom. It searches
// the assignments value by value, pruning with arc consistency over the
// unary and binary atoms (the only arities the random shapes use), and
// checks every atom once all values are assigned.
func bruteHom(src, dst []atom) (bool, error) {
	tidx := map[string]int{}
	for _, a := range dst {
		for _, v := range a.args {
			if _, ok := tidx[v]; !ok {
				tidx[v] = len(tidx)
			}
		}
	}
	if len(tidx) > 64 {
		return false, fmt.Errorf("brute force supports targets of up to 64 values, got %d", len(tidx))
	}
	full := uint64(1)<<len(tidx) - 1
	if len(tidx) == 64 {
		full = ^uint64(0)
	}
	unary := map[string]uint64{}
	succ := map[string][]uint64{} // rel -> target value -> successor set
	holds := map[string]bool{}
	for _, a := range dst {
		holds[a.rel+"("+strings.Join(a.args, ",")+")"] = true
		switch len(a.args) {
		case 1:
			unary[a.rel] |= 1 << tidx[a.args[0]]
		case 2:
			if succ[a.rel] == nil {
				succ[a.rel] = make([]uint64, len(tidx))
			}
			succ[a.rel][tidx[a.args[0]]] |= 1 << tidx[a.args[1]]
		default:
			return false, fmt.Errorf("brute force supports arities 1 and 2, got %s", a.rel)
		}
	}
	sidx := map[string]int{}
	var svals []string
	for _, a := range src {
		for _, v := range a.args {
			if _, ok := sidx[v]; !ok {
				sidx[v] = len(svals)
				svals = append(svals, v)
			}
		}
	}
	dom := make([]uint64, len(svals))
	for i := range dom {
		dom[i] = full
	}
	type edge struct {
		x, y int
		s    []uint64
	}
	var edges []edge
	for _, a := range src {
		switch len(a.args) {
		case 1:
			dom[sidx[a.args[0]]] &= unary[a.rel]
		case 2:
			s := succ[a.rel]
			if s == nil {
				return false, nil
			}
			edges = append(edges, edge{sidx[a.args[0]], sidx[a.args[1]], s})
		default:
			return false, fmt.Errorf("brute force supports arities 1 and 2, got %s", a.rel)
		}
	}
	// propagate narrows dom to arc consistency; false means a domain
	// emptied.
	propagate := func(dom []uint64) bool {
		for changed := true; changed; {
			changed = false
			for _, e := range edges {
				var xs, ys uint64
				for t := 0; t < len(tidx); t++ {
					if dom[e.x]&(1<<t) == 0 {
						continue
					}
					if e.x == e.y {
						// A loop R(x,x) needs R(t,t).
						if e.s[t]&(1<<t) != 0 {
							xs |= 1 << t
						}
					} else if e.s[t]&dom[e.y] != 0 {
						xs |= 1 << t
						ys |= e.s[t] & dom[e.y]
					}
				}
				if e.x == e.y {
					ys = xs
				}
				if xs != dom[e.x] || ys != dom[e.y] {
					dom[e.x], dom[e.y] = xs, ys
					changed = true
				}
				if xs == 0 {
					return false
				}
			}
		}
		return true
	}
	img := make([]string, len(tidx))
	for v, i := range tidx {
		img[i] = v
	}
	nodes := 0
	var search func(dom []uint64) (bool, error)
	search = func(dom []uint64) (bool, error) {
		if nodes++; nodes > bruteNodeBudget {
			return false, fmt.Errorf("brute-force budget of %d nodes exceeded", bruteNodeBudget)
		}
		if !propagate(dom) {
			return false, nil
		}
		pick, best := -1, 65
		for i, d := range dom {
			if c := bits.OnesCount64(d); c > 1 && c < best {
				pick, best = i, c
			}
		}
		if pick < 0 {
			// Every value is assigned: check every atom.
			for _, a := range src {
				args := make([]string, len(a.args))
				for k, v := range a.args {
					args[k] = img[bits.TrailingZeros64(dom[sidx[v]])]
				}
				if !holds[a.rel+"("+strings.Join(args, ",")+")"] {
					return false, nil
				}
			}
			return true, nil
		}
		for d := dom[pick]; d != 0; d &= d - 1 {
			next := append([]uint64(nil), dom...)
			next[pick] = d & -d
			if ok, err := search(next); ok || err != nil {
				return ok, err
			}
		}
		return false, nil
	}
	return search(dom)
}
