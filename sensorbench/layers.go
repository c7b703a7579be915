package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	nids "semnids"
	"semnids/internal/core"
	"semnids/internal/incident"
	"semnids/internal/ir"
	"semnids/internal/sem"
	"semnids/internal/x86"
)

// layerMetric is one per-layer row: its unit and the end-to-end metric
// and workload it should move. README.md carries the same table.
type layerMetric struct {
	name, unit, moves string
}

var layerMetrics = []layerMetric{
	{"netpkt.parse_ns_per_packet", "ns", "throughput_mbps, cpu_ns_per_byte on sensor-mixed"},
	{"classify.ns_per_packet", "ns", "throughput_mbps, cpu_ns_per_byte on sensor-mixed"},
	{"classify.selected_ratio", "ratio", "throughput_mbps, cpu_ns_per_byte on sensor-mixed"},
	{"engine.ns_per_packet", "ns", "throughput_mbps, cpu_ns_per_byte on all three"},
	{"engine.ingest_wait_p50_us", "us", "alert_latency_p50_ms on sensor-mixed"},
	{"engine.queue_depth_max", "packets", "throughput_mbps on scan-all, iot-gateway"},
	{"engine.shard_skew", "ratio", "throughput_mbps on scan-all, iot-gateway"},
	{"engine.cache_hit_ratio", "ratio", "throughput_mbps on iot-gateway; none on scan-all"},
	{"engine.streams_per_selected_packet", "ratio", "throughput_mbps, cpu_ns_per_byte on scan-all, iot-gateway"},
	{"reasm.ns_per_packet", "ns", "throughput_mbps, cpu_ns_per_byte, alert_latency_p50_ms on iot-gateway"},
	{"reasm.analyzed_bytes_ratio", "ratio", "throughput_mbps, cpu_ns_per_byte on iot-gateway"},
	{"reasm.unclosed_per_kpacket", "flows", "cpu_ns_per_byte, alert_latency_p50_ms on iot-gateway"},
	{"extract.ns_per_byte", "ns/B", "throughput_mbps on scan-all, iot-gateway"},
	{"extract.frame_bytes_ratio", "ratio", "throughput_mbps on scan-all, iot-gateway"},
	{"core.fingerprint_ns_per_byte", "ns/B", "cpu_ns_per_byte on iot-gateway"},
	{"x86.decode_ns_per_byte", "ns/B", "throughput_mbps, cpu_ns_per_byte, alert_latency_p95_ms on scan-all, iot-gateway"},
	{"ir.lift_ns_per_inst", "ns", "throughput_mbps, cpu_ns_per_byte, alert_latency_p95_ms on scan-all, iot-gateway"},
	{"sem.analyze_ns_per_byte", "ns/B", "throughput_mbps, cpu_ns_per_byte, alert_latency_p95_ms on scan-all, iot-gateway; ~0 on sensor-mixed"},
	{"sem.analyze_ns_per_byte.dns", "ns/B", "throughput_mbps on scan-all"},
	{"sem.analyze_ns_per_byte.coap", "ns/B", "throughput_mbps, cpu_ns_per_byte on iot-gateway"},
	{"sem.analyze_ns_per_byte.exploit", "ns/B", "alert_latency_p95_ms on scan-all, iot-gateway"},
	{"sem.sketch_us_per_detection", "us", "cpu_ns_per_byte, alert_latency_p95_ms on scan-all, iot-gateway"},
	{"incident.ns_per_event", "ns", "cpu_ns_per_byte on iot-gateway"},
	{"incident.walk_ns_per_event", "ns", "none: lockstep publish and flush cost inside the walk"},
	{"incident.events_per_packet", "events", "cpu_ns_per_byte on iot-gateway"},
	{"lineage.observe_ns_per_event", "ns", "cpu_ns_per_byte on iot-gateway"},
	{"fed.checkpoint_ms", "ms", "cpu_ns_per_byte, allocs_per_packet, peak_heap_mb on scan-all, iot-gateway"},
	{"fed.checkpoints", "count", "cpu_ns_per_byte, allocs_per_packet on scan-all, iot-gateway"},
	{"fed.checkpoint_kb", "KB", "allocs_per_packet, peak_heap_mb on scan-all, iot-gateway"},
	{"driver.late_p95_ms", "ms", "none: checks the open-loop driver kept its schedule"},
	{"walk.wall_s", "s", "none: single-threaded baseline of the untraced walk"},
	{"walk.coverage_ratio", "ratio", "none: share of walk time the layer spans explain"},
	{"walk.trace_overhead_ratio", "ratio", "none: traced walk time over untraced walk time"},
}

// walkOnce runs one complete walk and returns it with its wall time.
func walkOnce(w *workload, root string, tr *tracer, keep bool) (*walker, time.Duration, error) {
	dir, err := os.MkdirTemp(root, "walk-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	k, err := newWalker(w, dir, tr, keep)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	err = k.run()
	wall := time.Since(t0)
	k.stop()
	return k, wall, err
}

// perLayer runs the engine once in each loop for the engine-side
// counters, then alternates untraced and traced walks over the same
// capture until the budget is spent, then times x86 decode, IR lift
// and the correlator on their own over what the first traced walk
// analyzed and published.
func perLayer(w *workload, root string, budget time.Duration) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	start := time.Now()

	dir, err := os.MkdirTemp(root, "closed-")
	if err != nil {
		return nil, err
	}
	closed, err := runClosed(w, dir, true)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(w.labels)
	res.Failed += checkRun("closed loop", w, closed.alerts, closed.stats.Dropped)

	dir, err = os.MkdirTemp(root, "open-")
	if err != nil {
		return nil, err
	}
	open, err := runOpen(w, dir)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(w.labels)
	res.Failed += checkRun("open loop", w, open.alerts, open.stats.Dropped) + open.frameErrs

	var untraced, traced []float64
	var k *walker
	var wall time.Duration
	var kept [][]byte
	var events []core.Event
	tr := newTracer(3 * len(w.frames))
	for i := 0; i < 2 || time.Since(start) < budget; i++ {
		_, u, err := walkOnce(w, root, nil, false)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, u.Seconds())
		tr.reset()
		if k, wall, err = walkOnce(w, root, tr, kept == nil); err != nil {
			return nil, err
		}
		traced = append(traced, wall.Seconds())
		if kept == nil {
			kept, events = k.kept, k.events
		}
	}
	fmt.Printf("walk: %d untraced and %d traced walks; %d spans in the last\n", len(untraced), len(traced), len(tr.spans))

	// The walk describes the engine only if it reproduces the engine's
	// alerts and incidents.
	alertsOK := sameAlerts(closed.alerts, k.alerts)
	incidentsOK := sameIncidents(closed.incidents, k.corr.Incidents())
	fmt.Printf("walk vs engine: %d vs %d alerts (same set: %v), %d vs %d incidents (same set: %v)\n",
		len(k.alerts), len(closed.alerts), alertsOK, len(k.corr.Incidents()), len(closed.incidents), incidentsOK)
	res.Attempted += 2
	if !alertsOK {
		res.Failed++
	}
	if !incidentsOK {
		res.Failed++
	}

	spanPath := filepath.Join(buildDir, "spans-"+w.name+".json")
	if err := tr.writeJSON(spanPath, wall.Nanoseconds()); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", spanPath)

	self := tr.selfTimes()
	var layerNS [nLayers]float64
	classNS := map[string]float64{}
	var covered float64
	for i, s := range tr.spans {
		layerNS[s.layer] += float64(self[i])
		covered += float64(self[i])
		if s.layer == lAnalyze && s.flow >= 0 {
			class := "other"
			if l := w.labels[tr.ids[s.flow]]; l != nil {
				class = l.class
			}
			classNS[class] += float64(self[i])
		}
	}
	decodeNS, decodeBytes, liftNS, liftInsts := decodeLift(kept)
	correlateNS := correlate(events, k.cfg)
	c := &k.c
	st := closed.stats
	maxShard, sumShard := 0, 0
	for _, n := range c.shardPackets {
		sumShard += n
		maxShard = max(maxShard, n)
	}

	put := func(name string, v float64) {
		for _, m := range layerMetrics {
			if m.name == name {
				res.Metrics[name] = metric{v, m.unit}
				return
			}
		}
		panic("unlisted layer metric " + name)
	}
	pkts, sel := float64(c.packets), float64(c.selected)
	put("netpkt.parse_ns_per_packet", layerNS[lParse]/pkts)
	put("classify.ns_per_packet", layerNS[lClassify]/pkts)
	put("classify.selected_ratio", ratio(float64(st.Selected), float64(st.Packets)))
	put("engine.ns_per_packet", layerNS[lEngine]/pkts)
	put("engine.ingest_wait_p50_us", open.tel.ingestP50NS/1e3)
	put("engine.queue_depth_max", float64(closed.queueMax))
	put("engine.shard_skew", ratio(float64(maxShard)*float64(len(c.shardPackets)), float64(sumShard)))
	put("engine.cache_hit_ratio", ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)))
	put("engine.streams_per_selected_packet", ratio(float64(st.StreamsAnalyzed), float64(st.Selected)))
	put("reasm.ns_per_packet", (layerNS[lReasmFeed]+layerNS[lReasmEvict]+layerNS[lReasmDrain])/sel)
	put("reasm.analyzed_bytes_ratio", ratio(float64(c.streamBytes), float64(c.selectedPayload)))
	put("reasm.unclosed_per_kpacket", 1000*float64(c.unclosed)/sel)
	put("extract.ns_per_byte", ratio(layerNS[lExtract], float64(c.streamBytes)))
	put("extract.frame_bytes_ratio", ratio(float64(c.frameBytes), float64(c.streamBytes)))
	put("core.fingerprint_ns_per_byte", ratio(layerNS[lFingerprint], float64(c.frameBytes)))
	put("x86.decode_ns_per_byte", ratio(decodeNS, decodeBytes))
	put("ir.lift_ns_per_inst", ratio(liftNS, liftInsts))
	put("sem.analyze_ns_per_byte", ratio(layerNS[lAnalyze], float64(c.missBytes)))
	for _, class := range perClass {
		put("sem.analyze_ns_per_byte."+class, ratio(classNS[class], float64(c.classBytes[class])))
	}
	put("sem.sketch_us_per_detection", ratio(layerNS[lSketch], 1e3*float64(c.sketches)))
	put("incident.ns_per_event", ratio(correlateNS, float64(len(events))))
	put("incident.walk_ns_per_event", ratio(layerNS[lPublish]+layerNS[lFlush], float64(c.events)))
	put("incident.events_per_packet", ratio(float64(closed.inc.Events), float64(st.Packets)))
	put("lineage.observe_ns_per_event", ratio(layerNS[lLineage], float64(c.events)))
	put("fed.checkpoint_ms", ratio(layerNS[lCheckpoint], 1e6*float64(c.checkpoints)))
	put("fed.checkpoints", float64(closed.sink.Checkpoints))
	put("fed.checkpoint_kb", ratio(float64(c.checkpointBytes), 1024*float64(c.checkpoints)))
	put("driver.late_p95_ms", quantile(open.lateMS, 0.95))
	put("walk.wall_s", median(untraced))
	put("walk.coverage_ratio", covered/float64(wall.Nanoseconds()))
	put("walk.trace_overhead_ratio", median(traced)/median(untraced))
	res.Correct = res.Failed == 0

	fmt.Println(falseAlertProbe(w.seed))
	fmt.Printf("engine: %d packets, %d selected, %d streams, %d frames, cache %d hits / %d misses / %d rejected, dispatch wait %.1f ns/packet over %d blocked sends, %d checkpoints\n",
		st.Packets, st.Selected, st.StreamsAnalyzed, st.Frames, st.CacheHits, st.CacheMisses, st.CacheRejected,
		ratio(float64(closed.tel.dispatchSumNS), float64(st.Packets)), closed.tel.dispatchCount, closed.sink.Checkpoints)
	fmt.Printf("walk: %d packets, %d selected, %d streams (%d B), %d frames (%d B), %d analyzed (%d B), %d sketches, %d events, %d checkpoints, decode/lift pass over %d frames (%.0f B)\n",
		c.packets, c.selected, c.streams, c.streamBytes, c.frames, c.frameBytes, c.misses, c.missBytes, c.sketches, c.events, c.checkpoints, len(kept), decodeBytes)
	fmt.Println("layer self time in the traced walk:")
	wallNS := float64(wall.Nanoseconds())
	for l := 0; l < nLayers; l++ {
		fmt.Printf("  %-18s %9.1f ms %6.2f%%\n", layerNames[l], layerNS[l]/1e6, 100*layerNS[l]/wallNS)
	}
	classes := make([]string, 0, len(classNS))
	for cl := range classNS {
		classes = append(classes, cl)
	}
	sort.Strings(classes)
	fmt.Println("analyzer time by traffic class:")
	for _, cl := range classes {
		fmt.Printf("  %-8s %9.1f ms over %d B\n", cl, classNS[cl]/1e6, c.classBytes[cl])
	}
	fmt.Println("per-layer metrics (value, unit, the end-to-end metric and workload it should move):")
	for _, m := range layerMetrics {
		fmt.Printf("  %-36s %14.4f %-7s %s\n", m.name, res.Metrics[m.name].Value, m.unit, m.moves)
	}
	return res, nil
}

// decodeLift times x86 decoding — DecodeCache.Sweep at the analyzer's
// sweep offsets — and IR lifting of each resulting sweep, over frames.
func decodeLift(frames [][]byte) (decodeNS, decodeBytes, liftNS, liftInsts float64) {
	offsets := sem.NewAnalyzer(sem.BuiltinTemplates()).SweepOffsets
	sweeps := make([][]x86.Inst, len(offsets))
	for _, f := range frames {
		t0 := time.Now()
		c := x86.NewDecodeCache(f)
		for i, off := range offsets {
			if off < len(f) {
				sweeps[i] = c.Sweep(off)
			} else {
				sweeps[i] = nil
			}
		}
		decodeNS += float64(time.Since(t0).Nanoseconds())
		decodeBytes += float64(len(f))
		for _, insts := range sweeps {
			if len(insts) == 0 {
				continue
			}
			t0 = time.Now()
			ir.Lift(insts)
			liftNS += float64(time.Since(t0).Nanoseconds())
			liftInsts += float64(len(insts))
		}
	}
	return
}

// correlate times the incident correlator on its own: the walk's
// events published into a fresh correlator, then one Flush. Inside the
// walk, the per-packet Flush that keeps the correlator in lockstep
// also pays a goroutine handoff per packet, which this pass does not.
func correlate(events []core.Event, cfg nids.EngineConfig) float64 {
	c := incident.New(incident.Config{
		WindowUS:        uint64(cfg.IncidentWindow / time.Microsecond),
		FanoutThreshold: cfg.IncidentFanout,
		MaxSources:      cfg.MaxIncidentSources,
	})
	defer c.Stop()
	t0 := time.Now()
	for _, ev := range events {
		c.Publish(ev)
	}
	c.Flush()
	return float64(time.Since(t0).Nanoseconds())
}

func alertKeys(as []nids.Alert) []string {
	out := make([]string, len(as))
	for i, a := range as {
		b, _ := json.Marshal(a)
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

func sameAlerts(a, b []nids.Alert) bool {
	ka, kb := alertKeys(a), alertKeys(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func sameIncidents(a, b []nids.Incident) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && string(ja) == string(jb)
}
