package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"extremalcq/internal/compact"
	"extremalcq/internal/engine"
	"extremalcq/internal/fitting"
	"extremalcq/internal/hom"
	"extremalcq/internal/hypergraph"
	"extremalcq/internal/instance"
	"extremalcq/internal/ucqfit"
)

// The traced run attributes a job's cost to layers from outside the
// program. It runs the job's solver entry point once more under a memo
// of its own that records every miss, then replays each recorded
// product, hom search and core through the public functions of the
// instance, hypergraph, compact and hom packages, timing each call.

// missLog is a hom.Cache and instance.ProductCache over a fresh engine
// memo that records every miss: the searches, cores and products the
// solver computed rather than looked up.
type missLog struct {
	m     *engine.Memo
	mu    sync.Mutex
	homs  [][2]instance.Pointed
	cores []instance.Pointed
	prods [][2]instance.Pointed
}

func newMissLog() *missLog { return &missLog{m: engine.NewMemo(0)} }

func (c *missLog) GetHom(ctx context.Context, from, to instance.Pointed) (hom.Assignment, bool, bool) {
	h, exists, ok := c.m.GetHom(ctx, from, to)
	if !ok {
		c.mu.Lock()
		c.homs = append(c.homs, [2]instance.Pointed{from.Clone(), to.Clone()})
		c.mu.Unlock()
	}
	return h, exists, ok
}

func (c *missLog) PutHom(ctx context.Context, from, to instance.Pointed, h hom.Assignment, exists bool) {
	c.m.PutHom(ctx, from, to, h, exists)
}

func (c *missLog) GetCore(ctx context.Context, p instance.Pointed) (instance.Pointed, bool) {
	core, ok := c.m.GetCore(ctx, p)
	if !ok {
		c.mu.Lock()
		c.cores = append(c.cores, p.Clone())
		c.mu.Unlock()
	}
	return core, ok
}

func (c *missLog) PutCore(ctx context.Context, p, core instance.Pointed) { c.m.PutCore(ctx, p, core) }

func (c *missLog) GetProduct(ctx context.Context, a, b instance.Pointed) (instance.Pointed, bool) {
	prod, ok := c.m.GetProduct(ctx, a, b)
	if !ok {
		c.mu.Lock()
		c.prods = append(c.prods, [2]instance.Pointed{a.Clone(), b.Clone()})
		c.mu.Unlock()
	}
	return prod, ok
}

func (c *missLog) PutProduct(ctx context.Context, a, b, prod instance.Pointed) {
	c.m.PutProduct(ctx, a, b, prod)
}

// solverContext gives a replay the per-job solver state an engine
// attaches: a probe cache, a search arena and the search worker budget.
func solverContext(ctx context.Context, searchWorkers int) context.Context {
	ctx = hypergraph.WithCache(ctx, hypergraph.NewCache(0))
	ctx = compact.WithArena(ctx, compact.NewArena())
	return hom.WithSearchWorkers(ctx, searchWorkers)
}

// solve runs the job's solver entry point the way the engine dispatches
// the kinds and tasks the workloads use, and returns its verdict.
func solve(ctx context.Context, j engine.Job) (bool, error) {
	opts := fitting.DefaultSearch()
	switch {
	case j.Kind == engine.KindCQ && j.Task == engine.TaskExists:
		return fitting.ExistsCtx(ctx, j.Examples)
	case j.Kind == engine.KindCQ && j.Task == engine.TaskConstruct:
		q, ok, err := fitting.ConstructMostSpecificCtx(ctx, j.Examples)
		if ok && err == nil {
			q.CoreCtx(ctx)
		}
		return ok, err
	case j.Kind == engine.KindCQ && j.Task == engine.TaskWeaklyMostGeneral:
		_, ok, err := fitting.SearchWeaklyMostGeneralCtx(ctx, j.Examples, opts)
		return ok, err
	case j.Kind == engine.KindUCQ && j.Task == engine.TaskConstruct:
		_, ok, err := ucqfit.ConstructCtx(ctx, j.Examples)
		return ok, err
	}
	return false, fmt.Errorf("no replay for %s/%s", j.Kind, j.Task)
}

// layers accumulates one job's replayed layer calls.
type layers struct {
	product, probe, semijoin, build, search, core time.Duration
	productFacts                                  int64
	productAlloc                                  uint64
	products, probes, cores                       int
	searches, jointree, backtrack, retractions    int64
}

// replayJob records the job's misses and replays them layer by layer.
func replayJob(ctx context.Context, j engine.Job, searchWorkers int) (layers, bool, error) {
	var lt layers
	log := newMissLog()
	sctx := solverContext(ctx, searchWorkers)
	found, err := solve(instance.WithProductCache(hom.WithCache(sctx, log), log), j)
	if err != nil {
		return lt, false, err
	}
	hr := newHeapReader()
	for _, ab := range log.prods {
		a0, _ := hr.read()
		t0 := time.Now()
		prod, err := instance.Product(ab[0], ab[1])
		lt.product += time.Since(t0)
		a1, _ := hr.read()
		if err != nil {
			return lt, false, err
		}
		lt.products++
		lt.productAlloc += a1 - a0
		lt.productFacts += int64(prod.I.Size())
	}
	rctx := solverContext(ctx, searchWorkers)
	for _, ft := range log.homs {
		lt.replaySearch(rctx, ft[0], ft[1], searchWorkers)
	}
	for _, p := range log.cores {
		t0 := time.Now()
		hom.CoreCtx(solverContext(ctx, searchWorkers), p)
		lt.core += time.Since(t0)
		lt.cores++
		lt.replayCore(rctx, p, searchWorkers)
	}
	return lt, found, nil
}

// pins mirrors the hom search's set-up checks: it returns the images the
// distinguished tuple forces inside and outside the source's domain, or
// ok=false when no homomorphism can exist.
func pins(from, to instance.Pointed) (pinned, fixed map[instance.Value]instance.Value, ok bool) {
	if !from.I.Schema().Equal(to.I.Schema()) || from.Arity() != to.Arity() {
		return nil, nil, false
	}
	need := map[instance.Value]instance.Value{}
	for i, a := range from.Tuple {
		if prev, seen := need[a]; seen && prev != to.Tuple[i] {
			return nil, nil, false
		}
		need[a] = to.Tuple[i]
	}
	pinned = map[instance.Value]instance.Value{}
	fixed = map[instance.Value]instance.Value{}
	for a, b := range need {
		if !from.I.InDom(a) {
			fixed[a] = b
			continue
		}
		if !to.I.InDom(b) {
			return nil, nil, false
		}
		pinned[a] = b
	}
	return pinned, fixed, true
}

// replaySearch runs one hom search through the layers the dispatcher
// chooses between: the acyclicity probe, then the semi-join evaluator
// or the compact build and backtracking search.
func (lt *layers) replaySearch(ctx context.Context, from, to instance.Pointed, workers int) (map[instance.Value]instance.Value, bool) {
	lt.searches++
	pinned, fixed, ok := pins(from, to)
	if !ok {
		return nil, false
	}
	t0 := time.Now()
	hg, fo, acyclic := hypergraph.Probe(ctx, from)
	lt.probe += time.Since(t0)
	lt.probes++
	var h map[instance.Value]instance.Value
	if acyclic {
		lt.jointree++
		t0 = time.Now()
		h, ok = hypergraph.Solve(ctx, hg, fo, to.I, pinned)
		lt.semijoin += time.Since(t0)
	} else {
		lt.backtrack++
		t0 = time.Now()
		rep := compact.Build(ctx, from.I, to.I, pinned)
		lt.build += time.Since(t0)
		t0 = time.Now()
		var ids []uint32
		ids, ok = rep.Find(ctx, workers)
		lt.search += time.Since(t0)
		if ok {
			h = rep.ToAssignment(ids)
		}
	}
	if !ok {
		return nil, false
	}
	for a, b := range fixed {
		h[a] = b
	}
	return h, true
}

// replayCore repeats the core computation's retraction loop: drop each
// non-distinguished value in turn and search for a retraction onto the
// rest, restarting from the image after every success.
func (lt *layers) replayCore(ctx context.Context, p instance.Pointed, workers int) {
	cur := p
	for {
		dist := map[instance.Value]bool{}
		for _, a := range cur.Tuple {
			dist[a] = true
		}
		dropped := false
		for _, m := range cur.I.Dom() {
			if dist[m] {
				continue
			}
			keep := map[instance.Value]bool{}
			for _, v := range cur.I.Dom() {
				if v != m {
					keep[v] = true
				}
			}
			target := instance.Pointed{I: cur.I.Restrict(keep), Tuple: cur.Tuple}
			h, ok := lt.replaySearch(ctx, cur, target, workers)
			if !ok {
				continue
			}
			lt.retractions++
			img := map[instance.Value]bool{}
			for _, w := range h {
				img[w] = true
			}
			for _, a := range cur.Tuple {
				img[a] = true
			}
			cur = instance.Pointed{I: cur.I.Restrict(img), Tuple: cur.Tuple}
			dropped = true
			break
		}
		if !dropped {
			return
		}
	}
}
