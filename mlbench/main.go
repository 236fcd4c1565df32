// Command mlbench is the repository's benchmark: it generates one named
// workload from a seed, times the calls into each layer's public
// functions from outside, checks every output, and prints the metrics
// as a final JSON line.
//
//	go run . -workload fig8-sweep -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// prints the per-layer metrics and writes the recorded spans under
// .bench_build/trace. Run it through run.sh from the checkout root,
// which builds it and keeps the Go caches inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name (see -list)")
	seed := flag.Uint64("seed", 1, "input-generation seed")
	seconds := flag.Float64("seconds", 10, "timed iterations run for about this long")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	root := flag.String("root", ".", "checkout root (testdata is read and scratch files written under it)")
	flag.Parse()
	// One thread runs the program: the engine, its shards and the sweep
	// workers all take their width from GOMAXPROCS. The hosts are
	// shared, and a run that needs every core at once stalls whenever
	// anything else takes one of them; a run on one core leaves the
	// others to that noise. planetary-1m's traced run still measures
	// the sharded engine across every core (netsim.shard_speedup).
	runtime.GOMAXPROCS(1)

	w, err := lookup(registry(), *workload)
	if err != nil || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "mlbench: usage: -workload <name> -seed <n> -seconds <s> -trace <0|1>", err)
		os.Exit(2)
	}
	spec, err := loadSpec(*root)
	var why string
	if err == nil {
		why, err = spec.why(w.Name())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlbench:", err)
		os.Exit(1)
	}
	nproc, cpu, gover := fingerprint()
	fmt.Printf("mlbench %s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d cpu=%q go=%s\n",
		w.Name(), *seed, *seconds, *trace, nproc, defaultShards(), cpu, gover)
	fmt.Printf("why: %s\n", why)

	r, err := bench(w, *seed, *seconds, *trace == 1, *root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlbench:", err)
		os.Exit(1)
	}
	defs := spec.EndToEnd
	if *trace == 1 {
		defs = spec.PerLayer
	}
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := r.metrics[d.Name]
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		note := ""
		if v == 0 {
			note = " (none: this workload does no such work)"
		}
		fmt.Printf("%-30s %.6g %s%s\n", d.Name, v, d.Unit, note)
	}
	errorRate := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Printf("%-30s %.6g ratio (%d of %d operations failed)\n", "error_rate", errorRate, r.failed, r.attempted)
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "mlbench: check failed:", e)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !line.Correct {
		os.Exit(1)
	}
}
