package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"extremalcq/internal/engine"
	"extremalcq/internal/store"
)

// runState is one set-up of a workload: its plan, and for service-mix
// the warm engine and store the timed phase runs against.
type runState struct {
	w      workload
	seed   int64
	plan   []desc
	digest string
	mat    *materializer
	eng    *engine.Engine
	st     *store.Store
	dir    string
}

// serviceOptions is the service-mix engine: one worker per CPU, one
// search goroutine per job, the store attached with memo spill on.
func serviceOptions(st *store.Store) engine.Options {
	n := runtime.GOMAXPROCS(0)
	return engine.Options{Workers: n, SearchWorkers: 1, Store: st, MemoSpill: true}
}

// setup generates the plan, materializes and digests every job, and for
// service-mix opens a store and engine and answers the repeat pool.
func setup(ctx context.Context, w workload, seed int64, tmpRoot string) (*runState, error) {
	s := &runState{w: w, seed: seed, plan: makePlan(w, seed)}
	s.mat = newMaterializer(w, seed)
	var err error
	if s.digest, err = planDigest(w, s.mat, s.plan); err != nil {
		return nil, err
	}
	if !w.service {
		return s, nil
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "store-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	if s.st, err = store.Open(dir, store.Options{}); err != nil {
		s.close()
		return nil, err
	}
	s.eng = engine.New(serviceOptions(s.st))
	for i, b := range s.mat.pool {
		j, err := b.spec(w.deadline).Build()
		if err != nil {
			s.close()
			return nil, fmt.Errorf("pool job %d: %w", i, err)
		}
		if res := s.eng.Do(ctx, j); res.Err != nil {
			s.close()
			return nil, fmt.Errorf("pool job %d: %w", i, res.Err)
		}
	}
	// The store writes behind; repeats are store hits only once the
	// pool's records have landed.
	for s.eng.Stats().Store.WriteQueue > 0 {
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

func (s *runState) close() {
	if s.eng != nil {
		s.eng.Close()
	}
	if s.st != nil {
		s.st.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// sample is one timed job.
type sample struct {
	d      desc
	traced bool
	lat    time.Duration
	ttfr   time.Duration // submit to first answer; streaming jobs only
	res    engine.Result
	frames []string
}

// phase is the outcome of one timed phase.
type phase struct {
	samples  []sample
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
	livePeak uint64
	stats    []engine.Stats // one per engine the phase used
}

// Trace modes of a phase: explain reports off, on for every job, or on
// for every other block of jobs (blocks share one class mix, so the
// traced and untraced halves are comparable).
const (
	traceOff = iota
	traceAll
	traceAlternate
)

// tracedJob reports whether plan position i of a phase runs traced.
func (s *runState) tracedJob(mode, i int) bool {
	return mode == traceAll || (mode == traceAlternate && (i/len(s.w.block))%2 == 1)
}

// runPhase runs jobs of the plan until dur has passed and at least
// minJobs ran (or until maxJobs ran, when maxJobs > 0).
func (s *runState) runPhase(ctx context.Context, dur time.Duration, minJobs, maxJobs int, trace int) phase {
	t0 := time.Now()
	more := func(i int) bool {
		if maxJobs > 0 {
			return i < maxJobs
		}
		return i < minJobs || time.Since(t0) < dur
	}
	if s.w.service {
		return s.runClosedLoop(ctx, more, trace)
	}
	return s.runSequential(ctx, more, trace)
}

// runSequential is one client submitting to a fresh engine per job, as
// one cqfit invocation does. It stops on a block boundary, so the class
// mix of the samples is exact.
func (s *runState) runSequential(ctx context.Context, more func(int) bool, trace int) phase {
	// Samples are preallocated so the benchmark's own bookkeeping does
	// not grow the live heap it reports.
	p := phase{samples: make([]sample, 0, 4096)}
	hr := newHeapReader()
	bl := len(s.w.block)
	t0 := time.Now()
	for i := 0; ; i++ {
		if i%bl == 0 && !more(i) {
			break
		}
		b := s.mat.materialize(s.plan[i%len(s.plan)])
		j, err := b.job(s.w.deadline)
		if err != nil {
			p.samples = append(p.samples, sample{d: b.d, res: engine.Result{Err: err}})
			continue
		}
		j.Trace = s.tracedJob(trace, i)
		eng := engine.New(engine.Options{})
		a0, _ := hr.read()
		c0 := cpuTime()
		js := time.Now()
		res := eng.Submit(ctx, j).Wait()
		lat := time.Since(js)
		p.cpu += cpuTime() - c0
		a1, live := hr.read()
		p.alloc += a1 - a0
		p.livePeak = max(p.livePeak, live)
		if trace != traceOff {
			p.stats = append(p.stats, eng.Stats())
		}
		eng.Close()
		p.samples = append(p.samples, sample{d: b.d, traced: j.Trace, lat: lat, res: res})
	}
	p.wall = time.Since(t0)
	return p
}

// runClosedLoop is GOMAXPROCS clients in one process against the shared
// service engine; each client sends its next job when the last returns.
// A job's latency runs from its JobSpec text to its result.
func (s *runState) runClosedLoop(ctx context.Context, more func(int) bool, trace int) phase {
	var p phase
	clients := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	hr := newHeapReader()
	a0, _ := hr.read()
	c0 := cpuTime()
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hr := newHeapReader()
			local := make([]sample, 0, len(s.plan)/clients+1)
			var peak uint64
			for {
				i := int(next.Add(1) - 1)
				if !more(i) || i >= len(s.plan) {
					break
				}
				b := s.mat.materialize(s.plan[i])
				spec := b.spec(s.w.deadline)
				spec.Trace = s.tracedJob(trace, i)
				local = append(local, s.serve(ctx, b, spec))
				_, live := hr.read()
				peak = max(peak, live)
			}
			mu.Lock()
			p.samples = append(p.samples, local...)
			p.livePeak = max(p.livePeak, peak)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - c0
	a1, _ := hr.read()
	p.alloc = a1 - a0
	p.stats = []engine.Stats{s.eng.Stats()}
	return p
}

// serve runs one service-mix job from its text form.
func (s *runState) serve(ctx context.Context, b *benchJob, spec engine.JobSpec) sample {
	js := time.Now()
	smp := sample{d: b.d, traced: spec.Trace}
	j, err := spec.Build()
	if err != nil {
		smp.res = engine.Result{Err: err}
		smp.lat = time.Since(js)
		return smp
	}
	if !b.stream {
		smp.res = s.eng.Submit(ctx, j).Wait()
		smp.lat = time.Since(js)
		return smp
	}
	st := s.eng.SubmitStream(ctx, j)
	for a := range st.Answers() {
		if smp.frames == nil {
			smp.ttfr = time.Since(js)
		}
		smp.frames = append(smp.frames, a.Query)
	}
	smp.res = st.Wait()
	smp.lat = time.Since(js)
	return smp
}

// verify checks every sample against the oracle. It returns the number
// answered correctly within the deadline, the number of wrong verdicts
// and the first of them; failed and late jobs are reported on stderr.
func (s *runState) verify(samples []sample) (answered int, wrong int, firstWrong string) {
	type fit struct {
		ok  bool
		err error
	}
	pool := map[int]fit{}
	fits := func(b *benchJob) (bool, error) {
		if b.d.Shape != shapeRepeat {
			return bruteFits(b)
		}
		f, ok := pool[b.d.N]
		if !ok {
			f.ok, f.err = bruteFits(b)
			pool[b.d.N] = f
		}
		return f.ok, f.err
	}
	for _, smp := range samples {
		err := verdict(s.mat.materialize(smp.d), smp.res, smp.frames, fits)
		switch {
		case err != nil && smp.res.Err == nil:
			wrong++
			if firstWrong == "" {
				firstWrong = fmt.Sprintf("%s seed %d: %v", smp.d.Shape, smp.d.Seed, err)
			}
		case err == nil && smp.lat <= s.w.deadline:
			answered++
		default:
			fmt.Fprintf(os.Stderr, "unanswered: %s seed %d after %v: %v\n", smp.d.Shape, smp.d.Seed, smp.lat, err)
		}
	}
	return answered, wrong, firstWrong
}
