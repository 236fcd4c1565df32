package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mlfair/internal/scenario"
	"mlfair/internal/sweepexec"
)

// gridDurable is a grid of 3 protocols x losses Bernoulli loss values
// on an 8-receiver star, run the durable way: shards run in sequence,
// each with its own checkpoint directory and shard file, then one
// resume pass over a finished shard, then a merge of the shard files.
//
// The cells are long enough that checkpoint commits are a fifth of the
// run or less. The time a file create takes on the machine the
// benchmark was tuned on swings several-fold over minutes, so a grid of
// cheap cells, where the commits are nearly all of the run, measured
// the file system's state more than the program.
type gridDurable struct {
	losses, packets int
	// inMemory caches the checkpoint-free table per input, computed
	// outside every timed region.
	inMemory map[string][]byte
}

// gridShards is how many shards the grid is split into; gridReps the
// replications of each point.
const (
	gridShards = 3
	gridReps   = 2
)

func (*gridDurable) Name() string { return "grid-durable" }

func (w *gridDurable) Generate(seed uint64, root string) (any, error) {
	// A run that was cut short may have left its checkpoints behind.
	if err := clearCheckpoints(w.dir(root)); err != nil {
		return nil, err
	}
	loss := make([]any, w.losses)
	for i := range loss {
		loss[i] = float64(i) / 10000
	}
	sw := &scenario.Sweep{
		Base: scenario.Spec{
			Topology:     scenario.TopologySpec{Kind: "star", Receivers: 8},
			Sessions:     []scenario.SessionSpec{{Protocol: "Deterministic", Layers: 8}},
			DefaultLink:  &scenario.LinkSpec{Kind: "bernoulli"},
			Packets:      w.packets,
			Replications: scenario.ReplicationSpec{N: gridReps},
			Seed:         seed,
		},
		Axes: []scenario.Axis{
			{Field: "sessions.protocol", Values: []any{"Coordinated", "Uncoordinated", "Deterministic"}},
			{Field: "defaultLink.loss", Values: loss},
		},
		Outputs: []string{"goodput", "root_redundancy"},
	}
	return encodeSweep(sw)
}

type gridPrep struct {
	sw  *scenario.Sweep
	dir string
}

// dir is where the durable runs keep their files. Every iteration, and
// every later run of the same size, reuses it: the spill and shard
// files are replaced where they lie and only the checkpoints are
// removed between runs. Deleting each iteration's files made later
// file creates up to 4x slower for a minute or more, so wall_s
// depended on what had run before.
func (w *gridDurable) dir(root string) string {
	return filepath.Join(root, ".bench_build", "work", fmt.Sprintf("grid-%d", w.losses))
}

// checkpointName is the checkpoint file sweepexec keeps in each
// checkpoint directory; while it exists, a run that does not resume
// refuses the directory.
const checkpointName = "sweep.ckpt"

// clearCheckpoints removes every shard's checkpoint under dir, so the
// next durable run starts afresh in the same directories.
func clearCheckpoints(dir string) error {
	for i := 0; i < gridShards; i++ {
		err := os.Remove(filepath.Join(dir, fmt.Sprintf("ckpt%d", i), checkpointName))
		if err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

func (p *gridPrep) Cleanup() error { return clearCheckpoints(p.dir) }

func (w *gridDurable) Setup(in any, env *Env) (any, error) {
	sw, err := decodeSweep(in.([]byte), env)
	if err != nil {
		return nil, err
	}
	return &gridPrep{sw: sw, dir: w.dir(env.Root)}, nil
}

type gridOut struct {
	points, resumed, shard0Cells int
	paths                        []string
}

func (w *gridDurable) Run(prep any, env *Env) (*Outputs, error) {
	p := prep.(*gridPrep)
	o := &gridOut{}
	for i := 0; i < gridShards; i++ {
		sp := env.Tracer.Begin("sweepexec.run")
		res, err := sweepexec.Run(p.sw, sweepexec.Options{
			ShardIndex: i, ShardCount: gridShards,
			CheckpointDir: filepath.Join(p.dir, fmt.Sprintf("ckpt%d", i)),
			Observe:       env.Observe(),
		})
		sp.End()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			o.shard0Cells = res.Sim.NumObservations()
		}
		o.points += len(res.Sim.Points())
		path := filepath.Join(p.dir, fmt.Sprintf("shard%d.bin", i))
		sp = env.Tracer.Begin("results.encode")
		err = res.WriteShardFile(path)
		sp.End()
		if err != nil {
			return nil, err
		}
		o.paths = append(o.paths, path)
	}
	sp := env.Tracer.Begin("sweepexec.resume")
	res, err := sweepexec.Run(p.sw, sweepexec.Options{
		ShardIndex: 0, ShardCount: gridShards,
		CheckpointDir: filepath.Join(p.dir, "ckpt0"), Resume: true,
		Observe: env.Observe(),
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	o.resumed = res.ResumedCells
	sp = env.Tracer.Begin("sweepexec.merge")
	merged, err := sweepexec.MergeFiles(p.sw, o.paths)
	sp.End()
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	sp = env.Tracer.Begin("results.csv")
	err = merged.WriteCSV(&b)
	sp.End()
	return &Outputs{Ops: o.points, Body: b.Bytes(), Value: o}, err
}

// table runs the grid in memory, with no checkpoints or shard files —
// the table the durable run must reproduce.
func (w *gridDurable) table(in []byte) ([]byte, error) {
	if t, ok := w.inMemory[string(in)]; ok {
		return t, nil
	}
	sw, err := scenario.DecodeSweep(bytes.NewReader(in))
	if err != nil {
		return nil, err
	}
	res, err := scenario.RunSweep(sw)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := res.WriteCSV(&b); err != nil {
		return nil, err
	}
	if w.inMemory == nil {
		w.inMemory = map[string][]byte{}
	}
	w.inMemory[string(in)] = b.Bytes()
	return b.Bytes(), nil
}

func (w *gridDurable) Check(in any, out, ref *Outputs) []error {
	o := out.Value.(*gridOut)
	errs := make([]error, 3)
	want, err := w.table(in.([]byte))
	if err != nil {
		errs[0] = err
	} else if !bytes.Equal(out.Body, want) {
		errs[0] = fmt.Errorf("grid-durable: merged table differs from the in-memory sweep")
	}
	if err := checkSweepCSV(out.Body, o.points, 2); err != nil {
		errs[1] = fmt.Errorf("grid-durable: %w", err)
	}
	if o.resumed != o.shard0Cells || o.resumed == 0 {
		errs[2] = fmt.Errorf("grid-durable: resume restored %d cells, want the finished shard's %d", o.resumed, o.shard0Cells)
	}
	return errs
}

func (w *gridDurable) Layers(in any, last *Outputs, env *Env, span map[string]float64) (map[string]float64, []error) {
	m := map[string]float64{}
	prog, _ := finalProgress(env)
	m["sweepexec.spilled_shards"] = float64(prog.SpilledShards)
	m["sweepexec.checkpointed_cells"] = float64(prog.CheckpointedCells)
	m["sweepexec.skipped_cells"] = float64(prog.SkippedCells)

	sw, err := scenario.DecodeSweep(bytes.NewReader(in.([]byte)))
	if err != nil {
		return m, []error{err}
	}
	// The same shard passes without checkpoints: the difference is the
	// durable commit cost.
	t0 := time.Now()
	points := 0
	for i := 0; i < gridShards; i++ {
		res, err := sweepexec.Run(sw, sweepexec.Options{ShardIndex: i, ShardCount: gridShards})
		if err != nil {
			return m, []error{err}
		}
		points += len(res.Sim.Points())
	}
	mem := time.Since(t0).Seconds()
	m["sweepexec.commit_ms_per_point"] = (span["sweepexec.run"] - mem) / float64(points) * 1000

	// Shard-file size and decode time, on a fresh durable run's files.
	prep, err := w.Setup(in, &Env{Root: env.Root})
	if err != nil {
		return m, []error{err}
	}
	defer prep.(*gridPrep).Cleanup()
	out, err := w.Run(prep, &Env{Root: env.Root})
	if err != nil {
		return m, []error{err}
	}
	var size int64
	t0 = time.Now()
	for _, path := range out.Value.(*gridOut).paths {
		if _, _, err := sweepexec.ReadShardFile(path); err != nil {
			return m, []error{err}
		}
	}
	m["results.decode_s"] = time.Since(t0).Seconds()
	for _, path := range out.Value.(*gridOut).paths {
		fi, err := os.Stat(path)
		if err != nil {
			return m, []error{err}
		}
		size += fi.Size()
	}
	m["results.shard_bytes"] = float64(size)
	return m, []error{engineLayers(sw, m)}
}
