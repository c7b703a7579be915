package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	nids "semnids"
	"semnids/internal/fed"
	"semnids/internal/incident"
	"semnids/internal/telemetry"
)

// closedRep is one closed-loop repetition: the whole capture through
// Engine.Run on a fresh engine.
type closedRep struct {
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	peakHeap uint64 // bytes above the heap in use before Run
	queueMax int    // deepest shard queue sampled during Run

	alerts    []nids.Alert
	incidents []nids.Incident
	evidence  []byte // the engine's evidence export after Run
	stats     nids.EngineMetrics
	inc       nids.IncidentMetrics
	sink      nids.SinkMetrics
	tel       telemetrySums
}

// telemetrySums are the engine's latency histograms after a run.
type telemetrySums struct {
	ingestP50NS   float64
	dispatchCount uint64
	dispatchSumNS int64
}

func readTelemetry(e *nids.Engine) telemetrySums {
	reg := e.Telemetry()
	in := reg.Histogram("semnids_engine_ingest_latency_ns", "").Snapshot()
	dw := reg.Histogram("semnids_engine_dispatch_wait_ns", "").Snapshot()
	return telemetrySums{
		ingestP50NS:   histQuantile(in, 0.5),
		dispatchCount: dw.Count, dispatchSumNS: dw.Sum,
	}
}

// histQuantile estimates the q-th quantile of a telemetry histogram,
// interpolating linearly inside the bucket that holds it. The
// histogram's own Quantile returns the bucket's upper bound, which
// repeats exactly from run to run and hides changes within a bucket.
func histQuantile(s telemetry.HistSnapshot, q float64) float64 {
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
	}
	rank := q * float64(total)
	var cum float64
	for _, b := range s.Buckets {
		if cum+float64(b.Count) < rank {
			cum += float64(b.Count)
			continue
		}
		// Buckets above 7 span the 2^(len-4) values below their
		// inclusive upper bound (see internal/telemetry).
		lower, width := float64(b.Upper), 1.0
		if b.Upper > 7 {
			width = float64(uint64(1) << (bits.Len64(uint64(b.Upper)) - 4))
			lower = float64(b.Upper) - width + 1
		}
		return lower + width*(rank-cum)/float64(b.Count)
	}
	return 0
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the highest in-use heap while it runs, and the
// deepest shard queue when given an engine.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
	qmax int
}

func startHeapSampler(e *nids.Engine) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			if v := heapInUse(); v > h.peak {
				h.peak = v
			}
			if e != nil {
				for _, s := range e.Stats().Shards {
					if s.QueueLen > h.qmax {
						h.qmax = s.QueueLen
					}
				}
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and waits for it to exit.
func (h *heapSampler) finish() {
	close(h.stop)
	<-h.done
}

// heapInUse is the heap occupied by objects, live or not yet swept.
func heapInUse() uint64 {
	var sample [1]metrics.Sample
	sample[0].Name = "/memory/classes/heap/objects:bytes"
	metrics.Read(sample[:])
	return sample[0].Value.Uint64()
}

// runClosed feeds the whole capture through Engine.Run on a fresh
// engine whose evidence sink writes to dir. Only Run — which ends
// with its Drain — is timed. sampleQueues adds shard-queue sampling
// (the traced run only: Stats allocates).
func runClosed(w *workload, dir string, sampleQueues bool) (*closedRep, error) {
	e, err := nids.NewEngine(w.config(dir))
	if err != nil {
		return nil, fmt.Errorf("new engine: %w", err)
	}
	defer e.Stop()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	base := heapInUse()
	var qe *nids.Engine
	if sampleQueues {
		qe = e
	}
	hs := startHeapSampler(qe)
	c0 := cpuTime()
	t0 := time.Now()
	runErr := e.Run(bytes.NewReader(w.pcap))
	wall := time.Since(t0)
	c1 := cpuTime()
	hs.finish()
	runtime.ReadMemStats(&ms1)
	if runErr != nil {
		return nil, fmt.Errorf("run: %w", runErr)
	}
	rep := &closedRep{
		wall:     wall,
		cpu:      c1 - c0,
		mallocs:  ms1.Mallocs - ms0.Mallocs,
		queueMax: hs.qmax,
		alerts:   e.Alerts(),
		stats:    e.Stats(),
		inc:      e.IncidentStats(),
		sink:     e.SinkStats(),
		tel:      readTelemetry(e),
	}
	if hs.peak > base {
		rep.peakHeap = hs.peak - base
	}
	rep.incidents = e.Incidents()
	var ev bytes.Buffer
	if err := e.ExportIncidents(&ev); err != nil {
		return nil, fmt.Errorf("export evidence: %w", err)
	}
	rep.evidence = ev.Bytes()
	return rep, nil
}

// openResult is one open-loop pass at the workload's fixed rate.
type openResult struct {
	latencyMS []float64 // per alert, from its flow's first-packet due time
	lateMS    []float64 // per packet, how late the driver sent it
	atDrain   int       // alerts that fired only in the final Drain
	alerts    []nids.Alert
	stats     nids.EngineMetrics
	tel       telemetrySums
	frameErrs int
}

// runOpen replays the capture frame by frame through
// Engine.ProcessFrame from one goroutine, each frame sent at its due
// time start + (ts - baseTS). A late driver sends immediately; its
// lateness is recorded. The trace time of every packet equals its
// send schedule.
func runOpen(w *workload, dir string) (*openResult, error) {
	type fired struct {
		at time.Time
		id flowID
	}
	var (
		mu    sync.Mutex
		fires []fired
	)
	cfg := w.config(dir)
	cfg.OnAlert = func(a nids.Alert) {
		now := time.Now()
		mu.Lock()
		fires = append(fires, fired{now, flowID{a.Src, a.Dst, a.SrcPort, a.DstPort}})
		mu.Unlock()
	}
	e, err := nids.NewEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("new engine: %w", err)
	}
	defer e.Stop()
	res := &openResult{lateMS: make([]float64, 0, len(w.frames))}
	runtime.GC()
	start := time.Now().Add(2 * time.Millisecond)
	for i := range w.frames {
		f := &w.frames[i]
		due := start.Add(time.Duration(f.tsUS-baseTS) * time.Microsecond)
		now := time.Now()
		if d := due.Sub(now); d > 0 {
			time.Sleep(d)
			now = time.Now()
		}
		res.lateMS = append(res.lateMS, float64(now.Sub(due))/1e6)
		if err := e.ProcessFrame(w.frame(i), f.tsUS); err != nil {
			res.frameErrs++
		}
	}
	drainAt := time.Now()
	e.Drain()
	mu.Lock()
	defer mu.Unlock()
	for _, f := range fires {
		l := w.labels[f.id]
		if l == nil {
			continue // an alert on an unlabelled flow: counted by verdicts
		}
		due := start.Add(time.Duration(w.frames[l.first].tsUS-baseTS) * time.Microsecond)
		res.latencyMS = append(res.latencyMS, float64(f.at.Sub(due))/1e6)
		if f.at.After(drainAt) {
			res.atDrain++
		}
	}
	res.alerts = e.Alerts()
	res.stats = e.Stats()
	res.tel = readTelemetry(e)
	return res, nil
}

// measureSetup times nids.NewEngine on a sensor restart: an evidence
// directory holding a completed run's evidence, so recovery is
// included. The directory is written once, as one segment with one
// checkpoint, so its size does not depend on how many checkpoints the
// run happened to write; each sample starts from a fresh copy of it.
// Stop is not timed.
func measureSetup(w *workload, evidence []byte, root string, n int) ([]float64, error) {
	ex, err := fed.ReadExport(bytes.NewReader(evidence))
	if err != nil {
		return nil, fmt.Errorf("read evidence: %w", err)
	}
	tmpl, err := os.MkdirTemp(root, "evidence-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpl)
	sink, err := fed.OpenSink(fed.SinkConfig{Dir: tmpl, Export: func() *incident.EvidenceExport { return ex }})
	if err != nil {
		return nil, err
	}
	sink.Close()
	if m := sink.Metrics(); m.Checkpoints != 1 || m.Errors != 0 {
		return nil, fmt.Errorf("writing the evidence directory: %+v", m)
	}
	var out []float64
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp(root, "setup-")
		if err != nil {
			return nil, err
		}
		if err := copyDir(tmpl, dir); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		e, err := nids.NewEngine(w.config(dir))
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("restart engine: %w", err)
		}
		e.Stop()
		out = append(out, d.Seconds())
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// verdicts checks alerts against the ground truth. Every labelled
// flow is one attempt; a hostile flow without an alert, a benign flow
// with one, and an alert on a flow with no label are failures.
func verdicts(w *workload, alerts []nids.Alert) (failed int, details []string) {
	alerted := make(map[flowID]string)
	for _, a := range alerts {
		id := flowID{a.Src, a.Dst, a.SrcPort, a.DstPort}
		if alerted[id] != "" {
			alerted[id] += ","
		}
		alerted[id] += a.Detection.Template
	}
	for id, l := range w.labels {
		switch {
		case l.hostile && alerted[id] == "":
			failed++
			details = append(details, fmt.Sprintf("missed %s flow %s", l.class, fmtID(id)))
		case !l.hostile && alerted[id] != "":
			failed++
			details = append(details, fmt.Sprintf("false alert (%s) on %s flow %s", alerted[id], l.class, fmtID(id)))
		}
	}
	for id, tpl := range alerted {
		if w.labels[id] == nil {
			failed++
			details = append(details, fmt.Sprintf("alert (%s) on unlabelled flow %s", tpl, fmtID(id)))
		}
	}
	sort.Strings(details)
	return failed, details
}

func fmtID(id flowID) string {
	return fmt.Sprintf("%s:%d>%s:%d", id.src, id.sport, id.dst, id.dport)
}
