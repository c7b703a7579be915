package main

import (
	"fmt"
	"os"
	nids "semnids"
	"time"
)

// setupSamples is how many sensor restarts one run times; setup_s is
// their median.
const setupSamples = 11

// endToEnd measures the untraced engine: closed-loop repetitions on
// fresh engines for about three fifths of the budget, the restart
// set-up time, then open-loop passes at the workload's fixed rate for
// the rest. The closed loop gets the larger share because its
// repetitions vary more: each is a fraction of a second, and how many
// evidence checkpoints land inside one is a matter of timing. Every engine run's alerts are checked against the ground
// truth.
func endToEnd(w *workload, root string, budget time.Duration) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	start := time.Now()

	var tput, cpuNS, allocs, peak []float64
	var evidence []byte
	for rep := 0; rep < 3 || time.Since(start) < budget*3/5; rep++ {
		dir, err := os.MkdirTemp(root, "closed-")
		if err != nil {
			return nil, err
		}
		r, err := runClosed(w, dir, false)
		res.Attempted += len(w.labels)
		if err != nil {
			fmt.Printf("closed loop repetition %d: %v\n", rep, err)
			res.Failed += len(w.labels)
			continue
		}
		res.Failed += checkRun("closed loop", w, r.alerts, r.stats.Dropped)
		tput = append(tput, float64(w.wireBytes)/1e6/r.wall.Seconds())
		cpuNS = append(cpuNS, float64(r.cpu.Nanoseconds())/float64(w.wireBytes))
		allocs = append(allocs, float64(r.mallocs)/float64(len(w.frames)))
		peak = append(peak, float64(r.peakHeap)/1e6)
		evidence = r.evidence
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	if evidence == nil {
		return nil, fmt.Errorf("every closed-loop repetition failed")
	}
	fmt.Printf("closed loop: %d repetitions, fresh engine each, %d packets each\n", len(tput), len(w.frames))

	setup, err := measureSetup(w, evidence, root, setupSamples)
	if err != nil {
		return nil, err
	}

	var lat, late []float64
	passes, atDrain := 0, 0
	openStart := time.Now()
	passDur := time.Duration(float64(len(w.frames)) / w.rate * float64(time.Second))
	for passes == 0 || time.Since(start)+time.Since(openStart)/time.Duration(passes) < budget {
		dir, err := os.MkdirTemp(root, "open-")
		if err != nil {
			return nil, err
		}
		o, err := runOpen(w, dir)
		passes++
		res.Attempted += len(w.labels)
		if err != nil {
			fmt.Printf("open loop pass %d: %v\n", passes, err)
			res.Failed += len(w.labels)
			continue
		}
		res.Failed += checkRun("open loop", w, o.alerts, o.stats.Dropped) + o.frameErrs
		lat = append(lat, o.latencyMS...)
		late = append(late, o.lateMS...)
		atDrain += o.atDrain
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("the open loop produced no alerts")
	}
	fmt.Printf("open loop: %d passes of %.2f s at %.0f pps; %d alert latency samples (%d beyond p95), %d fired only at the final drain; driver lateness p95 %.3f ms\n",
		passes, passDur.Seconds(), w.rate, len(lat), len(lat)-int(0.95*float64(len(lat))), atDrain, quantile(late, 0.95))

	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	put("throughput_mbps", "MB/s", median(tput))
	put("cpu_ns_per_byte", "ns/B", median(cpuNS))
	put("allocs_per_packet", "allocs", median(allocs))
	put("peak_heap_mb", "MB", median(peak))
	put("alert_latency_p50_ms", "ms", quantile(lat, 0.50))
	put("alert_latency_p95_ms", "ms", quantile(lat, 0.95))
	put("setup_s", "s", median(setup))
	res.Correct = res.Failed == 0
	fmt.Printf("flows: %d attempted, %d failed (failed_ratio %.6f)\n", res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	printMetrics(res, endToEndOrder)
	return res, nil
}

var endToEndOrder = []string{
	"throughput_mbps", "cpu_ns_per_byte", "allocs_per_packet", "peak_heap_mb",
	"alert_latency_p50_ms", "alert_latency_p95_ms", "setup_s",
}

// checkRun counts the failures of one engine run — wrong verdicts and
// dropped packets — and prints the flows involved.
func checkRun(what string, w *workload, alerts []nids.Alert, dropped uint64) int {
	failed, details := verdicts(w, alerts)
	if failed > 0 || dropped > 0 {
		fmt.Printf("%s: %d wrong verdicts, %d dropped packets\n", what, failed, dropped)
		for i, d := range details {
			if i == 20 {
				fmt.Printf("  ... %d more\n", len(details)-i)
				break
			}
			fmt.Println("  " + d)
		}
	}
	return failed + int(dropped)
}

func printMetrics(res *result, order []string) {
	for _, n := range order {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
