// Command perfbench is the repository's benchmark: it runs one workload
// of fitting jobs through internal/engine from a seed, checks every
// verdict against an oracle of its own, and prints end-to-end metrics
// (untraced run) or per-layer metrics (traced run) as one JSON line.
//
//	perfbench --workload cycles-cold --seed 1 --seconds 30 --trace 0
//
// Workloads, their class mixes and the reasons for them are recorded in
// BENCHMARK.json at the repository root. Run it through run.sh, which
// builds it from the checkout it sits in.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets up its workload; setup_s is
// the median.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: cycles-cold, parity-search or service-mix")
	seed := fs.Int64("seed", 1, "seed of the generated jobs")
	seconds := fs.Int("seconds", 30, "length of the measured run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	tmp := fs.String("tmp", ".bench_build/tmp", "directory for the service-mix store")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads()[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	ctx := context.Background()
	dur := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 1 {
		res, err = traced(ctx, w, *seed, dur, *tmp)
	} else {
		res, err = untraced(ctx, w, *seed, dur, *tmp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// untraced sets the workload up setupRepeats times, runs its timed
// phase on the last set-up, verifies every answer and reports the
// end-to-end metrics.
func untraced(ctx context.Context, w workload, seed int64, dur time.Duration, tmp string) (result, error) {
	var setups []float64
	var s *runState
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = setup(ctx, w, seed, tmp); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	runtime.GC()
	p := s.runPhase(ctx, dur, w.minJobs, 0, traceOff)
	answered, wrong, firstWrong := s.verify(p.samples)
	n := len(p.samples)
	if n == 0 {
		return result{}, fmt.Errorf("no job completed")
	}
	lats := make([]float64, n)
	var ttfr []float64
	for i, smp := range p.samples {
		lats[i] = ms(smp.lat)
		if smp.ttfr > 0 {
			ttfr = append(ttfr, ms(smp.ttfr))
		}
	}
	correct := wrong == 0
	if firstWrong != "" {
		fmt.Fprintln(os.Stderr, "wrong verdict:", firstWrong)
	}
	if err := checkClasses(p.samples); err != nil {
		fmt.Fprintln(os.Stderr, "class check:", err)
		correct = false
	}
	fmt.Printf("workload=%s seed=%d plan_digest=%s jobs=%d wall_s=%.3f\n", w.name, seed, s.digest, n, p.wall.Seconds())
	fmt.Printf("latency samples=%d p50 rank=%d p90 rank=%d (%d beyond p90) classes: %s\n",
		n, rank(n, 0.5), rank(n, 0.9), n-rank(n, 0.9), classSummary(p.samples))
	if len(ttfr) > 0 {
		fmt.Printf("streaming jobs=%d ttfr_p50_ms=%.3f\n", len(ttfr), median(ttfr))
	}
	return result{
		Correct:   correct,
		Attempted: n,
		Failed:    n - answered,
		Metrics: map[string]metric{
			"latency_p50_ms":    {quantile(lats, 0.5), "ms"},
			"latency_p90_ms":    {quantile(lats, 0.9), "ms"},
			"throughput_jobs_s": {float64(n) / p.wall.Seconds(), "1/s"},
			"answered_share":    {float64(answered) / float64(n), "ratio"},
			"cpu_ms_per_job":    {ms(p.cpu) / float64(n), "ms"},
			"alloc_mb_per_job":  {float64(p.alloc) / mb / float64(n), "MB"},
			"live_heap_peak_mb": {float64(p.livePeak) / mb, "MB"},
			"setup_s":           {median(setups), "s"},
		},
	}, nil
}

// rank is the 1-based nearest rank of quantile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return max(r, 1)
}

// minBeyondP90 is the least number of samples above the p90 a run needs
// for that percentile to mean anything.
const minBeyondP90 = 10

// checkClasses fails when the p50 or p90 lies on the boundary between
// the fast and the slow class rather than inside one class: the p50 must
// lie within the fast class's 10th-90th percentiles and below the slow
// class's 25th, the p90 within the slow class's 10th-90th percentiles
// and above the fast class's 75th. It also requires enough samples
// beyond the p90.
func checkClasses(samples []sample) error {
	var all, fast, slow []float64
	for _, smp := range samples {
		v := ms(smp.lat)
		all = append(all, v)
		if slowShape(smp.d.Shape) {
			slow = append(slow, v)
		} else {
			fast = append(fast, v)
		}
	}
	n := len(all)
	if n-rank(n, 0.9) < minBeyondP90 {
		return fmt.Errorf("%d samples leave %d beyond the p90, want %d", n, n-rank(n, 0.9), minBeyondP90)
	}
	if len(fast) == 0 || len(slow) == 0 {
		return fmt.Errorf("a class has no samples (fast %d, slow %d)", len(fast), len(slow))
	}
	p50, p90 := quantile(all, 0.5), quantile(all, 0.9)
	f10, f75, f90 := quantile(fast, 0.1), quantile(fast, 0.75), quantile(fast, 0.9)
	s10, s25, s90 := quantile(slow, 0.1), quantile(slow, 0.25), quantile(slow, 0.9)
	if p50 < f10 || p50 > f90 || p50 >= s25 {
		return fmt.Errorf("p50 %.3f ms is not inside the fast class (fast p10..p90 %.3f..%.3f, slow p25 %.3f)", p50, f10, f90, s25)
	}
	if p90 < s10 || p90 > s90 || p90 <= f75 {
		return fmt.Errorf("p90 %.3f ms is not inside the slow class (slow p10..p90 %.3f..%.3f, fast p75 %.3f)", p90, s10, s90, f75)
	}
	return nil
}

// classSummary lists each shape's sample count and latency p10 and p50.
func classSummary(samples []sample) string {
	by := map[string][]float64{}
	for _, smp := range samples {
		by[smp.d.Shape] = append(by[smp.d.Shape], ms(smp.lat))
	}
	var parts []string
	for shape, v := range by {
		parts = append(parts, fmt.Sprintf("%s n=%d p10=%.3fms p50=%.3fms", shape, len(v), quantile(v, 0.1), median(v)))
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}
