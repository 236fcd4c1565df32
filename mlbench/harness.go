package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mlfair/internal/netsim"
	"mlfair/internal/scenario"
)

// minIterations is the fewest timed iterations a run makes, however
// long they take.
const minIterations = 3

// tally counts operations (engine runs, sweep points, output checks)
// and the ones that failed; error_rate is failed / attempted.
type tally struct {
	attempted, failed int
	errs              []error
}

func (t *tally) ops(n int) { t.attempted += n }

func (t *tally) fail(err error) {
	t.attempted++
	t.failed++
	t.errs = append(t.errs, err)
}

func (t *tally) checks(errs []error) {
	for _, err := range errs {
		if err != nil {
			t.fail(err)
		} else {
			t.attempted++
		}
	}
}

// iteration is one timed Setup+Run.
type iteration struct {
	setup, wall, cpu float64
	out              *Outputs
}

// runOnce times one iteration: setup_s runs from the workload's start
// to where Setup hands over to Run. That is the first call into an
// engine run or sweep scheduler, except on churn-fairness, where it is
// the call into scenario.RunCompiledObserved, which computes the
// fair-rate timeline before it starts the replications.
func runOnce(w Workload, in any, env *Env) (iteration, error) {
	// Start every iteration from a collected heap, so no iteration pays
	// for the garbage of the one before and the RSS high water is one
	// iteration's.
	runtime.GC()
	env.Tracer.NextRun()
	root := env.Tracer.Begin("iteration")
	c0, t0 := cpuSeconds(), time.Now()
	sp := env.Tracer.Begin("setup")
	prep, err := w.Setup(in, env)
	sp.End()
	t1 := time.Now()
	if err != nil {
		root.End()
		return iteration{}, fmt.Errorf("%s setup: %w", w.Name(), err)
	}
	out, err := w.Run(prep, env)
	t2, c1 := time.Now(), cpuSeconds()
	root.End()
	if c, ok := prep.(cleaner); ok {
		if cerr := c.Cleanup(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return iteration{}, fmt.Errorf("%s run: %w", w.Name(), err)
	}
	return iteration{setup: t1.Sub(t0).Seconds(), wall: t2.Sub(t0).Seconds(), cpu: c1 - c0, out: out}, nil
}

// setupOnce times Setup alone, for extra setup_s samples. Like every
// iteration, it starts from a collected heap.
func setupOnce(w Workload, in any, env *Env) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	prep, err := w.Setup(in, env)
	d := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	if c, ok := prep.(cleaner); ok {
		if err := c.Cleanup(); err != nil {
			return 0, err
		}
	}
	return d, nil
}

// setupBurst takes Setup-only samples for about budget seconds, none
// when one Setup (last is the latest) takes longer than that: hundreds
// where set-up is a sub-millisecond decode, so its median holds still.
func setupBurst(w Workload, in any, env *Env, last, budget float64) ([]float64, error) {
	var xs []float64
	t0 := time.Now()
	for time.Since(t0).Seconds()+last < budget {
		s, err := setupOnce(w, in, env)
		if err != nil {
			return nil, err
		}
		xs = append(xs, s)
		last = s
	}
	return xs, nil
}

// report is one benchmark run's outcome.
type report struct {
	tally
	metrics map[string]float64
}

// bench runs workload w for about seconds of timed iterations. With
// traced false it measures the end-to-end metrics with no instruments
// attached; with traced true it alternates plain and traced iterations
// and derives the per-layer metrics from the spans and engine counters.
func bench(w Workload, seed uint64, seconds float64, traced bool, root string) (*report, error) {
	r := &report{metrics: map[string]float64{}}
	in, err := w.Generate(seed, root)
	if err != nil {
		return nil, fmt.Errorf("%s generate: %w", w.Name(), err)
	}
	env := &Env{Root: root}

	// Warm-up: fills caches and finishes lazy set-up before timing,
	// counts the engine events (deterministic per seed), and fixes the
	// reference outputs every timed iteration must reproduce.
	env.Stats = &netsim.EngineStats{}
	warm, err := runOnce(w, in, env)
	if err != nil {
		r.fail(err)
		return r, nil
	}
	events := float64(env.Stats.Events.Load())
	env.Stats = nil
	// peak_rss_bytes is the high water of a fresh process that has made
	// one Generate, Setup and Run, before refKernel or more iterations
	// add to it: a maximum over every iteration would grow with their
	// count and with where the collector happened to run in the worst.
	rss := peakRSSBytes()
	ref := warm.out
	r.ops(ref.Ops)
	r.checks(w.Check(in, ref, ref))

	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var plain []iteration
	if !traced {
		// Each iteration, and the set-up samples taken after it, are
		// scaled by the refKernel runs before and after them.
		prev := refKernel()
		var setups, walls, cpus, rates, raw, refWalls []float64
		for len(plain) < minIterations || time.Now().Before(deadline) {
			it, err := runOnce(w, in, env)
			if err != nil {
				r.fail(err)
				return r, nil
			}
			r.ops(it.out.Ops)
			r.checks(w.Check(in, it.out, ref))
			plain = append(plain, it)
			burst, err := setupBurst(w, in, env, it.setup, it.wall/10)
			if err != nil {
				r.fail(err)
				return r, nil
			}
			next := refKernel()
			k, kc := refScale(prev, next)
			for _, s := range append(burst, it.setup) {
				setups = append(setups, k*s)
			}
			walls = append(walls, k*it.wall)
			cpus = append(cpus, kc*it.cpu)
			rates = append(rates, events/(k*(it.wall-it.setup)))
			raw = append(raw, it.wall)
			refWalls = append(refWalls, next.wall)
			fmt.Fprintf(os.Stderr, "iteration %d: setup %.6fs wall %.6fs cpu %.3fs, %d more set-ups, reference kernel wall %.4fs cpu %.4fs\n",
				len(plain), it.setup, it.wall, it.cpu, len(burst), next.wall, next.cpu)
			prev = next
		}
		if a, ok := w.(anchored); ok {
			if err := a.Anchor(env); err != nil {
				r.fail(fmt.Errorf("%s golden: %w", w.Name(), err))
			} else {
				r.ops(1)
			}
		}
		fmt.Fprintf(os.Stderr, "raw wall_s median %.6fs, reference kernel median %.4fs (reference %gs)\n",
			median(raw), median(refWalls), refSeconds)
		r.metrics["wall_s"] = median(walls)
		r.metrics["setup_s"] = median(setups)
		r.metrics["events_per_s"] = median(rates)
		r.metrics["cpu_s"] = median(cpus)
		r.metrics["peak_rss_bytes"] = rss
		return r, nil
	}

	// Traced: alternate plain and traced iterations, so drift hits both
	// sides alike and their ratio is the tracing overhead.
	tracer := NewTracer()
	var tracedIts []iteration
	var runs []int
	var stats *netsim.EngineStats
	var final []scenario.SweepProgress
	for len(tracedIts) < 2 || time.Now().Before(deadline) {
		it, err := runOnce(w, in, env)
		if err != nil {
			r.fail(err)
			return r, nil
		}
		r.ops(it.out.Ops)
		r.checks(w.Check(in, it.out, ref))
		plain = append(plain, it)

		env.Tracer, env.Stats, env.Final = tracer, &netsim.EngineStats{}, nil
		it, err = runOnce(w, in, env)
		stats, final = env.Stats, env.Final
		env.Tracer, env.Stats = nil, nil
		if err != nil {
			r.fail(err)
			return r, nil
		}
		r.ops(it.out.Ops)
		r.checks(w.Check(in, it.out, ref))
		tracedIts = append(tracedIts, it)
		runs = append(runs, tracer.run)
	}
	span := map[string]float64{}
	names := map[string]bool{}
	for _, s := range tracer.spans {
		names[s.Name] = true
	}
	for name := range names {
		var xs []float64
		for _, run := range runs {
			xs = append(xs, tracer.LayerTime(run, name).Seconds())
		}
		span[name] = median(xs)
	}
	for name, secs := range span {
		r.metrics[name+"_s"] = secs
	}
	counts := map[string]int64{
		"netsim.events":          stats.Events.Load(),
		"netsim.transmissions":   stats.Transmissions.Load(),
		"netsim.crossings":       stats.Crossings.Load(),
		"netsim.drops":           stats.Drops.Load(),
		"netsim.churn_events":    stats.ChurnEvents.Load(),
		"netsim.signal_events":   stats.SignalEvents.Load(),
		"netsim.forward_events":  stats.ForwardEvents.Load(),
		"netsim.heap_high_water": stats.HeapHighWater.Load(),
		"netsim.probe_windows":   stats.ProbeWindows.Load(),
	}
	for k, v := range counts {
		r.metrics[k] = float64(v)
	}
	if c := stats.Crossings.Load(); c > 0 {
		r.metrics["netsim.delivery_ratio"] = float64(stats.Deliveries.Load()) / float64(c)
	}
	var pw, tw []float64
	for i := range tracedIts {
		pw = append(pw, plain[i].wall)
		tw = append(tw, tracedIts[i].wall)
	}
	r.metrics["trace.overhead"] = median(tw)/median(pw) - 1

	tracer.NextRun()
	env.Tracer, env.Final = tracer, final
	layers, errs := w.Layers(in, tracedIts[len(tracedIts)-1].out, env, span)
	env.Tracer = nil
	r.checks(errs)
	for k, v := range layers {
		r.metrics[k] = v
	}
	path := filepath.Join(root, ".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl", w.Name(), seed))
	if err := tracer.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "mlbench: writing spans:", err)
	}
	return r, nil
}
