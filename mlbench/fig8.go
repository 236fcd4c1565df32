package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"mlfair/internal/scenario"
)

// fig8Path is the committed Figure 8 sweep and its golden table.
var fig8Path = filepath.Join("cmd", "netsim", "testdata", "sweeps", "fig8")

// fig8 is the paper's Figure 8 grid (3 protocols x 11 independent loss
// rates on a 50-receiver star, 8 replications of 50k packets) run
// through the in-memory sweep scheduler, the CLI -sweep path. The seed
// replaces the committed file's base seed.
type fig8 struct {
	// packets and reps, when set, shrink the grid for tests.
	packets, reps int
}

func (*fig8) Name() string { return "fig8-sweep" }

// Generate reads the committed sweep, which Anchor pins to its golden.
func (w *fig8) Generate(seed uint64, root string) (any, error) {
	sw, err := scenario.LoadSweepFile(filepath.Join(root, fig8Path+".json"))
	if err != nil {
		return nil, err
	}
	sw.Base.Seed = seed
	if w.packets > 0 {
		sw.Base.Packets = w.packets
	}
	if w.reps > 0 {
		sw.Base.Replications.N = w.reps
	}
	return encodeSweep(sw)
}

func (w *fig8) Setup(in any, env *Env) (any, error) { return decodeSweep(in.([]byte), env) }

func (w *fig8) Run(prep any, env *Env) (*Outputs, error) {
	sw := prep.(*scenario.Sweep)
	sp := env.Tracer.Begin("scenario.sweep")
	res, err := scenario.RunSweepObserved(sw, env.Observe())
	sp.End()
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	sp = env.Tracer.Begin("results.csv")
	err = res.WriteCSV(&b)
	sp.End()
	return &Outputs{Ops: len(res.Points), Body: b.Bytes(), Value: len(res.Points)}, err
}

func (w *fig8) Check(in any, out, ref *Outputs) []error {
	var same, valid error
	if !bytes.Equal(out.Body, ref.Body) {
		same = fmt.Errorf("fig8-sweep: table differs from the first run of the same inputs")
	}
	if err := checkSweepCSV(out.Body, out.Value.(int), 2); err != nil {
		valid = fmt.Errorf("fig8-sweep: %w", err)
	}
	return []error{same, valid}
}

// Anchor runs the committed sweep at its own seed through the
// workload's own steps and compares the table with fig8.golden.csv
// byte for byte.
func (w *fig8) Anchor(env *Env) error {
	want, err := os.ReadFile(filepath.Join(env.Root, fig8Path+".golden.csv"))
	if err != nil {
		return err
	}
	out, err := runSteps(&fig8{}, 777, &Env{Root: env.Root})
	if err != nil {
		return err
	}
	if !bytes.Equal(out.Body, want) {
		return fmt.Errorf("table differs from fig8.golden.csv at byte %d", firstDiff(out.Body, want))
	}
	return nil
}

func (w *fig8) Layers(in any, last *Outputs, env *Env, span map[string]float64) (map[string]float64, []error) {
	m := map[string]float64{}
	_, util := finalProgress(env)
	m["scenario.worker_util"] = util
	sw, err := scenario.DecodeSweep(bytes.NewReader(in.([]byte)))
	if err == nil {
		err = engineLayers(sw, m)
	}
	return m, []error{err}
}
