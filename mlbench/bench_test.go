package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"mlfair/internal/scenario"
)

// root is the checkout root, seen from this package's directory.
const root = ".."

// toyRegistry is every workload at a size that runs in well under a
// second, with the same code paths as the benchmark sizes.
func toyRegistry() []Workload {
	return []Workload{
		&planetary{packets: 256, receivers: 8 * 64 * 4},
		&fig8{packets: 2000, reps: 2},
		&churnFairness{packets: 20000, reps: 2, horizon: 40},
		&gridDurable{losses: 20, packets: 200},
	}
}

// spec reads BENCHMARK.json, which the harness takes its metric
// definitions and workload reasons from.
func spec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// endToEndDef is the end-to-end metric named name.
func endToEndDef(t *testing.T, name string) metricDef {
	t.Helper()
	defs := spec(t).EndToEnd
	i := slices.IndexFunc(defs, func(d metricDef) bool { return d.Name == name })
	if i < 0 {
		t.Fatalf("no end-to-end metric %q in BENCHMARK.json", name)
	}
	return defs[i]
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bf := spec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, d := range append(slices.Clone(bf.EndToEnd), bf.PerLayer...) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric %q: name outside [A-Za-z0-9_.-]", d.Name)
		}
	}
	ws := registry()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d registered", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.Name() {
			t.Errorf("workload %d: BENCHMARK.json %q, registry %q", i, bf.Workloads[i].Name, w.Name())
		}
	}
}

func TestWorkloadsPassChecksAtToySize(t *testing.T) {
	bf := spec(t)
	for _, w := range toyRegistry() {
		for _, traced := range []bool{false, true} {
			r, err := bench(w, 7, 0.05, traced, root)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name(), traced, err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name(), traced, r.failed, r.attempted, r.errs)
			}
			defs := bf.EndToEnd
			if traced {
				defs = bf.PerLayer
			}
			for _, d := range defs {
				// A per-layer metric the workload has no work for is
				// absent, and printed as 0.
				v, ok := r.metrics[d.Name]
				if (!traced && !ok) || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s = %v, %v", w.Name(), traced, d.Name, v, ok)
				}
				if !traced && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name(), d.Name, v)
				}
			}
		}
	}
}

// corrupt damages one run's outputs the way a wrong result would look.
func corrupt(t *testing.T, out *Outputs) {
	switch v := out.Value.(type) {
	case *planetaryOut:
		v.digest++
	case *gridOut:
		out.Body = append([]byte(nil), out.Body...)
		out.Body[len(out.Body)-2] ^= 1
	case int: // fig8: the table
		out.Body = append([]byte(nil), out.Body...)
		out.Body[len(out.Body)-2] ^= 1
	case *scenario.Result: // churn-fairness: one fair rate
		ep := v.Timeline[len(v.Timeline)-1]
		ep.Rates[0][0] = math.Inf(1)
	default:
		t.Fatalf("unknown output type %T", out.Value)
	}
}

func TestCorruptedOutputRaisesErrorRate(t *testing.T) {
	for _, w := range toyRegistry() {
		in, err := w.Generate(3, root)
		if err != nil {
			t.Fatal(err)
		}
		env := &Env{Root: root}
		ref, err := runOnce(w, in, env)
		if err != nil {
			t.Fatal(err)
		}
		var good tally
		good.checks(w.Check(in, ref.out, ref.out))
		it, err := runOnce(w, in, env)
		if err != nil {
			t.Fatal(err)
		}
		good.checks(w.Check(in, it.out, ref.out))
		if good.failed != 0 {
			t.Fatalf("%s: clean outputs failed: %v", w.Name(), good.errs)
		}
		it, err = runOnce(w, in, env)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(t, it.out)
		var bad tally
		bad.checks(w.Check(in, it.out, ref.out))
		if bad.failed == 0 {
			t.Errorf("%s: corrupted output passed every check", w.Name())
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []Span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},
		{Name: "b", Start: ms(30), End: ms(60), Parent: 0},  // overlaps a
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0}, // runs past root
		{Name: "a1", Start: ms(15), End: ms(20), Parent: 1},
		{Name: "b1", Start: ms(30), End: ms(60), Parent: 2}, // covers all of b
	}
	want := []time.Duration{ms(40), ms(25), 0, ms(30), ms(5), ms(30)}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self time %v, want %v", spans[i].Name, got[i], want[i])
		}
	}

	tr := NewTracer()
	tr.NextRun()
	outer := tr.Begin("outer")
	inner := tr.Begin("inner")
	time.Sleep(2 * time.Millisecond)
	inner.End()
	outer.End()
	if tr.spans[1].Parent != 0 || tr.spans[1].Run != 1 {
		t.Fatalf("inner span %+v: want parent 0, run 1", tr.spans[1])
	}
	if got := tr.LayerTime(1, "outer") + tr.LayerTime(1, "inner"); got != tr.spans[0].Duration() {
		t.Errorf("self times %v do not add up to the root's %v", got, tr.spans[0].Duration())
	}
}

// delayed adds a harness-side delay of d to every timed Run of the
// workload it wraps: a slowdown of known size.
type delayed struct {
	Workload
	d time.Duration
}

func (w delayed) Run(prep any, env *Env) (*Outputs, error) {
	time.Sleep(w.d)
	return w.Workload.Run(prep, env)
}

// regressed is the benchmark's gate: head's median is worse than base's
// by more than the metric's bound.
func regressed(base, head float64, d metricDef) bool {
	if d.Better == "higher" {
		return head < base*(1-d.Bound)
	}
	return head > base*(1+d.Bound)
}

// TestInjectedDelayAgainstBound checks the wall_s gate in both
// directions: a no-op change must pass it, a delay above the bound must
// fail it. It also reports whether a 5% delay is caught at the bound.
func TestInjectedDelayAgainstBound(t *testing.T) {
	w := &fig8{packets: 5000, reps: 2}
	in, err := w.Generate(5, root)
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{Root: root}
	medianWall := func(x Workload) float64 {
		var walls []float64
		for i := 0; i < 9; i++ {
			it, err := runOnce(x, in, env)
			if err != nil {
				t.Fatal(err)
			}
			walls = append(walls, it.wall)
		}
		return median(walls)
	}
	wall := endToEndDef(t, "wall_s")
	base := medianWall(w)
	five := time.Duration(0.05 * base * float64(time.Second))
	over := time.Duration(2 * wall.Bound * base * float64(time.Second))

	// Alternate the sides so drift in machine speed hits all of them.
	var b, noop, slow5, slowOver []float64
	for i := 0; i < 3; i++ {
		b = append(b, medianWall(w))
		noop = append(noop, medianWall(delayed{w, 0}))
		slow5 = append(slow5, medianWall(delayed{w, five}))
		slowOver = append(slowOver, medianWall(delayed{w, over}))
	}
	mb := median(b)
	if regressed(mb, median(noop), wall) {
		t.Errorf("no-op flagged: base %.4fs, no-op %.4fs, bound %v", mb, median(noop), wall.Bound)
	}
	if !regressed(mb, median(slowOver), wall) {
		t.Errorf("delay of twice the bound not flagged: base %.4fs, delayed %.4fs", mb, median(slowOver))
	}
	// A 5% delay can only be caught where the bound is below 5%.
	flagged5 := regressed(mb, median(slow5), wall)
	if wall.Bound < 0.05 && !flagged5 {
		t.Errorf("5%% delay not flagged at bound %v: base %.4fs, delayed %.4fs", wall.Bound, mb, median(slow5))
	}
	t.Logf("wall_s bound %v: no-op %+.1f%%, 5%% delay %+.1f%% (flagged %v), %.0f%% delay %+.1f%% (flagged %v)",
		wall.Bound, 100*(median(noop)/mb-1), 100*(median(slow5)/mb-1), flagged5,
		200*wall.Bound, 100*(median(slowOver)/mb-1), regressed(mb, median(slowOver), wall))
}

// TestLayerMap checks that layers.json maps every per-layer metric to
// an end-to-end metric and workloads that exist.
func TestLayerMap(t *testing.T) {
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Layers []struct {
			Metric string   `json:"metric"`
			Moves  string   `json:"moves"`
			On     []string `json:"on"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	mapped := map[string]bool{}
	for _, l := range doc.Layers {
		mapped[l.Metric] = true
		if l.Moves != "none" {
			endToEndDef(t, l.Moves)
		}
		for _, name := range l.On {
			if _, err := lookup(registry(), name); err != nil {
				t.Errorf("%s: %v", l.Metric, err)
			}
		}
	}
	for _, d := range spec(t).PerLayer {
		if !mapped[d.Name] {
			t.Errorf("per-layer metric %s has no entry in layers.json", d.Name)
		}
	}
}
