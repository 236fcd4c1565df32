package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"mlfair/internal/netsim"
	"mlfair/internal/scenario"
)

// Workload is one named benchmark input set. The harness calls
// Generate once per process with the command's seed (root is the
// checkout, for workloads built on a committed file); everything the
// program under test sees comes out of Generate. Setup (timed as
// setup_s) turns the inputs into a ready run — decode, validate,
// compile, topology generation, memory plan — and Run executes it. The
// reason each workload exists is its "why" in BENCHMARK.json.
type Workload interface {
	Name() string
	Generate(seed uint64, root string) (any, error)
	Setup(in any, env *Env) (any, error)
	Run(prep any, env *Env) (*Outputs, error)
	// Check verifies one run's outputs; ref holds the first outputs of
	// the same inputs, which every later run must reproduce. Each
	// element is one check, nil when it passed.
	Check(in any, out, ref *Outputs) []error
	// Layers makes the traced-only measurements and derives the
	// workload's per-layer metrics. last holds the outputs of the final
	// traced iteration; span holds the median self time, in
	// seconds, of every span name over the traced iterations.
	Layers(in any, last *Outputs, env *Env, span map[string]float64) (map[string]float64, []error)
}

// Outputs is what one Run produced.
type Outputs struct {
	// Ops counts the operations the run executed: engine runs or sweep
	// points.
	Ops int
	// Body is the canonical rendering that later runs must reproduce
	// byte for byte, filled by Run or, where rendering is costly, by
	// Check.
	Body []byte
	// Value is the workload's own result, for its checks.
	Value any
}

// Env is what the harness hands a workload: where the checkout is, and
// the instruments attached to this iteration (all nil when untraced).
type Env struct {
	Root   string
	Tracer *Tracer
	Stats  *netsim.EngineStats
	// Final collects the last SweepProgress snapshot of every scheduler
	// call made while Tracer is set.
	Final []scenario.SweepProgress
}

// Observe returns the scenario-layer attachment for the current
// instruments, or nil when nothing is attached.
func (e *Env) Observe() *scenario.Observe {
	if e.Stats == nil && e.Tracer == nil {
		return nil
	}
	ob := &scenario.Observe{Stats: e.Stats}
	if e.Tracer != nil {
		ob.Interval = time.Hour // only the final snapshot is wanted
		ob.Progress = func(p scenario.SweepProgress) {
			if p.Done {
				e.Final = append(e.Final, p)
			}
		}
	}
	return ob
}

// anchored is implemented by workloads with a committed golden file:
// Anchor reproduces it at its fixed seed, outside any timed region.
type anchored interface{ Anchor(env *Env) error }

// runSteps generates w's inputs from seed, sets them up and runs them,
// untimed: the path a golden check covers.
func runSteps(w Workload, seed uint64, env *Env) (*Outputs, error) {
	in, err := w.Generate(seed, env.Root)
	if err != nil {
		return nil, err
	}
	prep, err := w.Setup(in, env)
	if err != nil {
		return nil, err
	}
	return w.Run(prep, env)
}

// cleaner is implemented by prepared runs that hold files.
type cleaner interface{ Cleanup() error }

// defaultShards is the shard and worker width: every usable core, and
// never more than the machine has.
func defaultShards() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// registry lists every workload at its benchmark size, in the order
// BENCHMARK.json names them.
func registry() []Workload {
	return []Workload{
		&planetary{packets: 4096, receivers: 1 << 20},
		&fig8{},
		&churnFairness{packets: 1_000_000, reps: 4, horizon: 320},
		&gridDurable{losses: 40, packets: 100000},
	}
}

func lookup(ws []Workload, name string) (Workload, error) {
	i := slices.IndexFunc(ws, func(w Workload) bool { return w.Name() == name })
	if i < 0 {
		names := make([]string, len(ws))
		for j, w := range ws {
			names[j] = w.Name()
		}
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
	}
	return ws[i], nil
}
