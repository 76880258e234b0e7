package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"extremalcq/internal/engine"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/store"
)

// signatures are the deterministic counters that identify each cold
// shape's cost class. They do not depend on the seed: a job whose
// explain report differs has left its class.
var signatures = map[string]map[string]int64{
	shapeExistsN5:    {"hom_searches": 1, "dispatch_backtrack": 1, "dispatch_jointree": 0, "product_facts": 1275, "core_retractions": 0},
	shapeConstructN4: {"hom_searches": 106, "dispatch_backtrack": 106, "dispatch_jointree": 0, "product_facts": 120, "core_retractions": 0},
	shapeChain:       {"hom_searches": 1, "dispatch_backtrack": 0, "dispatch_jointree": 1, "product_facts": 0},
	shapeCycle:       {"hom_searches": 1, "dispatch_backtrack": 1, "dispatch_jointree": 0, "product_facts": 0},
}

// jobTrace is one replayed job: the engine's explain report for it and
// the benchmark's own layer timings and counts.
type jobTrace struct {
	d           desc
	report      *obs.Report
	lt          layers
	parse       time.Duration
	fingerprint time.Duration
	storeGet    time.Duration
	storePut    time.Duration
	storeBytes  int
}

// counter reads an explain-report counter (absent means zero).
func counter(r *obs.Report, name string) int64 {
	if r == nil {
		return 0
	}
	return r.Counters[name]
}

// crossCheck compares the benchmark's outside counts with the engine's
// explain report for the same job.
func crossCheck(t jobTrace) error {
	pairs := []struct {
		name    string
		outside int64
	}{
		{"product_facts", t.lt.productFacts},
		{"hom_searches", t.lt.searches},
		{"dispatch_jointree", t.lt.jointree},
		{"dispatch_backtrack", t.lt.backtrack},
		{"core_retractions", t.lt.retractions},
	}
	for _, p := range pairs {
		if got := counter(t.report, p.name); got != p.outside {
			return fmt.Errorf("%s seed %d: %s: engine reports %d, benchmark counted %d", t.d.Shape, t.d.Seed, p.name, got, p.outside)
		}
	}
	if sig, ok := signatures[t.d.Shape]; ok {
		for name, want := range sig {
			if got := counter(t.report, name); got != want {
				return fmt.Errorf("%s seed %d left its cost class: %s = %d, want %d", t.d.Shape, t.d.Seed, name, got, want)
			}
		}
	}
	return nil
}

// searchWorkers is the per-search parallelism of the workload's engine.
func (s *runState) searchWorkers() int {
	if s.w.service {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// replay replays one timed job. For the cold workloads the sample's own
// explain report is the reference; a service-mix job is rerun traced on
// a fresh engine, since the shared one answers from warm caches.
func (s *runState) replay(ctx context.Context, smp sample, rs *store.Store) (jobTrace, error) {
	b := s.mat.materialize(smp.d)
	t := jobTrace{d: smp.d}
	spec := b.spec(s.w.deadline)
	t0 := time.Now()
	j, err := spec.Build()
	t.parse = time.Since(t0)
	if err != nil {
		return t, err
	}
	for _, side := range [][]instance.Pointed{j.Examples.Pos, j.Examples.Neg} {
		for _, p := range side {
			// A clone, because instances memoize their fingerprint.
			c := p.Clone()
			t0 = time.Now()
			c.Fingerprint()
			t.fingerprint += time.Since(t0)
		}
	}
	if rs != nil {
		val, err := json.Marshal(struct {
			Found   bool     `json:"found"`
			Queries []string `json:"queries,omitempty"`
		}{smp.res.Found, smp.res.Queries})
		if err != nil {
			return t, err
		}
		key := j.FingerprintHex()
		t0 = time.Now()
		perr := rs.Put(key, val)
		t.storePut = time.Since(t0)
		if perr != nil {
			return t, perr
		}
		t0 = time.Now()
		if _, ok := rs.Get(key); !ok {
			return t, fmt.Errorf("replay store lost %s", key)
		}
		t.storeGet = time.Since(t0)
		t.storeBytes = len(val) + len(key)
	}
	if smp.d.Shape == shapeRepeat {
		// The service answers repeats from its store; no solver layer runs.
		return t, nil
	}
	t.report = smp.res.Trace
	if s.w.service {
		eng := engine.New(engine.Options{Workers: 1, SearchWorkers: 1})
		j.Trace = true
		res := eng.Do(ctx, j)
		eng.Close()
		if res.Err != nil {
			return t, res.Err
		}
		t.report = res.Trace
	}
	var found bool
	t.lt, found, err = replayJob(ctx, j, s.searchWorkers())
	if err != nil {
		return t, err
	}
	if found != smp.res.Found {
		return t, fmt.Errorf("%s seed %d: replayed verdict %v, engine %v", smp.d.Shape, smp.d.Seed, found, smp.res.Found)
	}
	return t, crossCheck(t)
}

// traced reports the per-layer metrics. For two thirds of the time it
// runs the workload with the engine's explain reports on for every
// other block of jobs (the latency ratio of the two halves is the
// tracing overhead); for up to the last third it replays the traced
// jobs layer by layer.
func traced(ctx context.Context, w workload, seed int64, dur time.Duration, tmp string) (result, error) {
	s, err := setup(ctx, w, seed, tmp)
	if err != nil {
		return result{}, err
	}
	defer s.close()
	var before engine.Stats
	if s.eng != nil {
		before = s.eng.Stats()
	}
	runtime.GC()
	third := dur / 3
	p := s.runPhase(ctx, 2*third, w.minJobs, 0, traceAlternate)
	answered, wrong, firstWrong := s.verify(p.samples)
	correct := wrong == 0
	if firstWrong != "" {
		fmt.Fprintln(os.Stderr, "wrong verdict:", firstWrong)
	}

	var rs *store.Store
	if w.service {
		dir, err := os.MkdirTemp(tmp, "replay-")
		if err != nil {
			return result{}, err
		}
		defer os.RemoveAll(dir)
		if rs, err = store.Open(dir, store.Options{}); err != nil {
			return result{}, err
		}
		defer rs.Close()
	}
	var traces []jobTrace
	nTraced := 0
	t0 := time.Now()
	for _, smp := range p.samples {
		if !smp.traced {
			continue
		}
		nTraced++
		if smp.res.Err != nil || (time.Since(t0) >= third && len(traces) > 0) {
			continue
		}
		t, err := s.replay(ctx, smp, rs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "traced run:", err)
			correct = false
			continue
		}
		traces = append(traces, t)
	}
	m := layerMetrics(traces, p, before, s)
	m["obs.trace_overhead_pct"] = metric{traceOverheadPct(p.samples), "%"}
	fmt.Printf("workload=%s seed=%d plan_digest=%s jobs=%d traced_jobs=%d replayed_jobs=%d\n",
		w.name, seed, s.digest, len(p.samples), nTraced, len(traces))
	n := len(p.samples)
	return result{Correct: correct, Attempted: n, Failed: n - answered, Metrics: m}, nil
}

// traceOverheadPct compares traced with untraced jobs shape by shape:
// the per-shape median latencies, weighted by each shape's job count,
// so a rare heavy job in either half does not decide the ratio.
func traceOverheadPct(samples []sample) float64 {
	on, off := map[string][]float64{}, map[string][]float64{}
	for _, smp := range samples {
		if smp.traced {
			on[smp.d.Shape] = append(on[smp.d.Shape], ms(smp.lat))
		} else {
			off[smp.d.Shape] = append(off[smp.d.Shape], ms(smp.lat))
		}
	}
	var sumOn, sumOff float64
	for shape, xs := range on {
		if ys := off[shape]; len(ys) > 0 {
			n := float64(len(xs) + len(ys))
			sumOn += n * median(xs)
			sumOff += n * median(ys)
		}
	}
	if sumOff == 0 {
		return 0
	}
	return (sumOn/sumOff - 1) * 100
}

// layerMetrics reduces the replayed jobs and the traced phase to the
// per-layer metrics: medians per job over the jobs that reached a layer
// (0 when none did), ratios over the whole traced phase.
func layerMetrics(traces []jobTrace, p phase, before engine.Stats, s *runState) map[string]metric {
	med := func(pick func(t jobTrace) (float64, bool)) float64 {
		var xs []float64
		for _, t := range traces {
			if v, ok := pick(t); ok {
				xs = append(xs, v)
			}
		}
		return medianOrZero(xs)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ctr := func(name string, when func(t jobTrace) bool) float64 {
		return med(func(t jobTrace) (float64, bool) {
			return float64(counter(t.report, name)), t.report != nil && when(t)
		})
	}
	solved := func(t jobTrace) bool { return t.report != nil }
	backtracked := func(t jobTrace) bool { return t.lt.backtrack > 0 }
	joined := func(t jobTrace) bool { return t.lt.jointree > 0 }
	cored := func(t jobTrace) bool { return t.lt.cores > 0 }
	var jt, bt int64
	for _, t := range traces {
		jt += t.lt.jointree
		bt += t.lt.backtrack
	}
	share := 0.0
	if jt+bt > 0 {
		share = float64(jt) / float64(jt+bt)
	}
	m := map[string]metric{
		"instance.product_ms": {med(func(t jobTrace) (float64, bool) { return ms(t.lt.product), t.lt.products > 0 }), "ms"},
		"instance.product_facts": {med(func(t jobTrace) (float64, bool) {
			return float64(t.lt.productFacts), t.lt.products > 0
		}), "count"},
		"instance.product_alloc_mb": {med(func(t jobTrace) (float64, bool) {
			return float64(t.lt.productAlloc) / mb, t.lt.products > 0
		}), "MB"},
		"instance.fingerprint_us":        {med(func(t jobTrace) (float64, bool) { return us(t.fingerprint), true }), "us"},
		"hypergraph.probe_ms":            {med(func(t jobTrace) (float64, bool) { return ms(t.lt.probe), t.lt.probes > 0 }), "ms"},
		"hypergraph.semijoin_ms":         {med(func(t jobTrace) (float64, bool) { return ms(t.lt.semijoin), joined(t) }), "ms"},
		"hypergraph.semijoin_reductions": {ctr("semijoin_reductions", joined), "count"},
		"compact.build_ms":               {med(func(t jobTrace) (float64, bool) { return ms(t.lt.build), backtracked(t) }), "ms"},
		"hom.search_ms":                  {med(func(t jobTrace) (float64, bool) { return ms(t.lt.search), backtracked(t) }), "ms"},
		"hom.searches":                   {med(func(t jobTrace) (float64, bool) { return float64(t.lt.searches), solved(t) }), "count"},
		"hom.nodes":                      {ctr("hom_nodes", backtracked), "count"},
		"hom.backtracks":                 {ctr("hom_backtracks", backtracked), "count"},
		"hom.prunings":                   {ctr("hom_prunings", backtracked), "count"},
		"hom.dispatch_jointree_share":    {share, "ratio"},
		"hom.core_ms":                    {med(func(t jobTrace) (float64, bool) { return ms(t.lt.core), cored(t) }), "ms"},
		"hom.core_retractions":           {ctr("core_retractions", cored), "count"},
		"engine.parse_us":                {med(func(t jobTrace) (float64, bool) { return us(t.parse), true }), "us"},
		"enum.candidates":                {ctr("enum_candidates", func(t jobTrace) bool { return t.d.Shape == shapeStream }), "count"},
	}

	// Engine-side ratios over the traced phase: summed over the per-job
	// engines of a cold workload, a difference of snapshots for the
	// shared service engine.
	var hits, misses, shared, storeHits, puts, putErrs, bytes int64
	var waits []float64
	for _, st := range p.stats {
		hits += st.Cache.Hits()
		misses += st.Cache.HomMisses + st.Cache.CoreMisses + st.Cache.ProductMisses
		shared += st.DedupShared
		if !s.w.service {
			waits = append(waits, st.Wait.AvgMS)
		}
	}
	jobs := float64(len(p.samples))
	if s.w.service && len(p.stats) == 1 {
		after := p.stats[0]
		hits -= before.Cache.Hits()
		misses -= before.Cache.HomMisses + before.Cache.CoreMisses + before.Cache.ProductMisses
		shared -= before.DedupShared
		storeHits = after.StoreHits - before.StoreHits
		if after.Store != nil && before.Store != nil {
			puts = after.Store.Puts - before.Store.Puts
			putErrs = after.Store.PutErrors - before.Store.PutErrors + after.Store.DroppedWrites - before.Store.DroppedWrites
			bytes = after.Store.Bytes - before.Store.Bytes
		}
		waits = []float64{histQuantileMS(after.Durations.Queue, before.Durations.Queue, 0.5)}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var ttfr []float64
	for _, smp := range p.samples {
		if smp.traced && smp.ttfr > 0 {
			ttfr = append(ttfr, ms(smp.ttfr))
		}
	}
	m["engine.memo_hit_ratio"] = metric{ratio(float64(hits), float64(hits+misses)), "ratio"}
	m["engine.dedup_shared_ratio"] = metric{ratio(float64(shared), jobs), "ratio"}
	m["engine.queue_wait_ms_p50"] = metric{medianOrZero(waits), "ms"}
	m["store.hit_ratio"] = metric{ratio(float64(storeHits), jobs), "ratio"}
	m["store.bytes_per_result"] = metric{ratio(float64(bytes), float64(puts)), "bytes"}
	m["store.put_errors"] = metric{float64(putErrs), "count"}
	m["store.get_us"] = metric{med(func(t jobTrace) (float64, bool) { return us(t.storeGet), t.storeBytes > 0 }), "us"}
	m["store.put_us"] = metric{med(func(t jobTrace) (float64, bool) { return us(t.storePut), t.storeBytes > 0 }), "us"}
	m["enum.first_answer_ms"] = metric{medianOrZero(ttfr), "ms"}
	return m
}

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// histQuantileMS estimates the q-quantile of the observations a
// histogram gained between two snapshots, interpolating linearly inside
// the bucket that holds it.
func histQuantileMS(after, before obs.HistogramSnapshot, q float64) float64 {
	counts := make([]int64, len(after.Counts))
	var total int64
	for i := range counts {
		counts[i] = after.Counts[i]
		if i < len(before.Counts) {
			counts[i] -= before.Counts[i]
		}
		total += counts[i]
	}
	total += after.Inf - before.Inf
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	lo := 0.0
	for i, c := range counts {
		if cum+float64(c) >= target && c > 0 {
			hi := after.Bounds[i]
			return (lo + (hi-lo)*(target-cum)/float64(c)) * 1000
		}
		cum += float64(c)
		lo = after.Bounds[i]
	}
	return lo * 1000
}
