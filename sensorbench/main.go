// Command sensorbench measures the deployed sensor configuration from
// capture bytes to alert: parse, classify, reassembly, extraction,
// decode, lift, match, verdict cache, correlator, lineage and the
// durable evidence sink, all through the public nids.Engine.
//
//	bash sensorbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of an untraced
// engine; with --trace 1 the per-layer metrics of a traced walk over
// the same input plus engine-side counters. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Everything above it is the human-readable report,
// including the host record. See README.md for the workloads and for
// which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// buildDir holds everything a run writes, inside the checkout.
const buildDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "workload: sensor-mixed, scan-all, iot-gateway, or all (each workload in both modes)")
		seed    = flag.Int64("seed", 1, "workload generator seed")
		seconds = flag.Int("seconds", 30, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced walk")
		compare = flag.Bool("compare", false, "compare two result records given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareRecords(flag.Args()))
	}
	budget := time.Duration(*seconds) * time.Second
	var err error
	if *name == "all" {
		err = runAll(*seed, budget)
	} else {
		err = run(*name, *seed, budget, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sensorbench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload untraced and traced, then prints one
// result whose metric names are prefixed with workload and mode.
func runAll(seed int64, budget time.Duration) error {
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			fmt.Printf("== %s, trace %d\n", name, trace)
			res, err := measure(name, seed, budget, trace)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			all.Correct = all.Correct && res.Correct
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			for n, m := range res.Metrics {
				all.Metrics[fmt.Sprintf("%s/%d/%s", name, trace, n)] = m
			}
		}
	}
	return printResult(all)
}

func run(name string, seed int64, budget time.Duration, trace int) error {
	res, err := measure(name, seed, budget, trace)
	if err != nil {
		return err
	}
	return printResult(res)
}

func printResult(res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure generates the workload and measures it in one mode, saving
// the result with its host record.
func measure(name string, seed int64, budget time.Duration, trace int) (*result, error) {
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	if budget <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	host := currentHost()
	fmt.Println(host)
	t0 := time.Now()
	w, err := makeWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	defer w.release()
	fmt.Printf("workload %s seed %d: %d packets, %.1f MB on the wire, %d labelled flows (%d hostile), offered %.0f pps, %.2f s trailing trace time, generated in %.1f s\n",
		w.name, seed, len(w.frames), float64(w.wireBytes)/1e6, len(w.labels), w.hostile, w.rate,
		float64(w.trailingUS)/1e6, time.Since(t0).Seconds())

	var res *result
	if trace == 0 {
		res, err = endToEnd(w, root, budget)
	} else {
		res, err = perLayer(w, root, budget)
	}
	if err != nil {
		return nil, err
	}
	return res, saveRecord(host, w.name, seed, trace, res)
}
