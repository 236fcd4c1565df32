package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"strconv"
	"time"

	"mlfair/internal/netsim"
	"mlfair/internal/scenario"
)

// encodeSweep renders a sweep as the JSON document its workload hands
// to the program.
func encodeSweep(sw *scenario.Sweep) ([]byte, error) {
	var b bytes.Buffer
	if err := sw.Encode(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func decodeSweep(in []byte, env *Env) (*scenario.Sweep, error) {
	sp := env.Tracer.Begin("scenario.decode")
	defer sp.End()
	return scenario.DecodeSweep(bytes.NewReader(in))
}

// cellReplay times every (point, replication) cell of a sweep as a
// plain sequential netsim.Run, outside any scheduler — the engine's
// share of a sweep. packets > 0 overrides every point's budget (1 gives
// the construction proxy).
type cellReplay struct {
	secs           float64
	events         int64
	mallocs, bytes uint64
	compileSecs    float64
}

func replayCells(sw *scenario.Sweep, packets int) (*cellReplay, error) {
	r := &cellReplay{}
	t0 := time.Now()
	pts, compiled, err := sw.CompilePoints()
	if err != nil {
		return nil, err
	}
	r.compileSecs = time.Since(t0).Seconds()
	r.mallocs, r.bytes, err = allocDelta(func() error {
		t0 := time.Now()
		for i := range pts {
			for rep := 0; rep < pts[i].Spec.Replications.N; rep++ {
				cfg := compiled[i].Cfg
				cfg.Seed = netsim.ReplicationSeed(cfg.Seed, rep)
				if packets > 0 {
					cfg.Packets = packets
				}
				res, err := netsim.Run(cfg)
				if err != nil {
					return err
				}
				r.events += res.Events
			}
		}
		r.secs = time.Since(t0).Seconds()
		return nil
	})
	return r, err
}

// engineLayers fills the engine metrics of a sweep workload from a
// full-budget replay and a 1-packet replay.
func engineLayers(sw *scenario.Sweep, m map[string]float64) error {
	full, err := replayCells(sw, 0)
	if err != nil {
		return err
	}
	cons, err := replayCells(sw, 1)
	if err != nil {
		return err
	}
	m["scenario.compile_s"] = full.compileSecs
	m["netsim.run_s"] = full.secs
	m["netsim.construct_s"] = cons.secs
	m["netsim.loop_s"] = full.secs - cons.secs
	m["netsim.allocs_per_event"] = float64(full.mallocs) / float64(full.events)
	m["netsim.bytes_per_event"] = float64(full.bytes) / float64(full.events)
	return nil
}

// checkSweepCSV verifies a sweep table's shape and values: a header,
// rows points, and every statistic a finite number; redundancy columns
// (a link carries at least what its best receiver gets) are at least 1.
func checkSweepCSV(body []byte, rows, axes int) error {
	recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
	if err != nil {
		return err
	}
	if len(recs) != rows+1 {
		return fmt.Errorf("table has %d rows, want %d", len(recs)-1, rows)
	}
	for _, rec := range recs[1:] {
		for c, f := range rec[axes:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("column %s value %q is not a finite number", recs[0][axes+c], f)
			}
			if col := recs[0][axes+c]; col != "" && isRedundancyStat(col) && v < 1 {
				return fmt.Errorf("column %s value %v below 1", col, v)
			}
		}
	}
	return nil
}

func isRedundancyStat(col string) bool {
	for _, s := range []string{"_mean", "_min", "_max", "_p50"} {
		if col == "root_redundancy"+s {
			return true
		}
	}
	return false
}

// finalProgress sums the final scheduler snapshots of the last traced
// iteration.
func finalProgress(env *Env) (p scenario.SweepProgress, util float64) {
	var utils []float64
	for _, f := range env.Final {
		p.SkippedCells += f.SkippedCells
		p.SpilledShards += f.SpilledShards
		p.CheckpointedCells += f.CheckpointedCells
		utils = append(utils, f.Utilization)
	}
	return p, median(utils)
}
