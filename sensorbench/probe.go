package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"semnids/internal/extract"
	"semnids/internal/sem"
)

// probeUploads is how many uploads the false-alert probe analyzes.
const probeUploads = 1000

// falseAlertProbe analyzes benign binary uploads — HTTP POSTs of a
// JPEG-like body of random bytes — through extraction and the
// analyzer, and reports which were alerted. The traffic generator has
// no sessions with binary request bodies, so no workload sends them;
// on such bodies the xor-decrypt-loop template matches random code
// about once in several hundred uploads. The probe keeps that false
// alert rate in every per-layer report instead of leaving it out of
// the benchmark.
func falseAlertProbe(seed int64) string {
	rng := rand.New(rand.NewSource(seed ^ 0x0b5e55ed))
	an := sem.NewAnalyzer(sem.BuiltinTemplates())
	alerted := 0
	templates := map[string]int{}
	for i := 0; i < probeUploads; i++ {
		body := make([]byte, 512+rng.Intn(2048))
		rng.Read(body)
		copy(body, []byte{0xff, 0xd8, 0xff, 0xe0, 0x00, 0x10, 'J', 'F', 'I', 'F', 0})
		req := fmt.Appendf(nil, "POST /upload HTTP/1.1\r\nHost: www.example.com\r\nContent-Type: image/jpeg\r\nContent-Length: %d\r\n\r\n", len(body))
		hit := false
		for _, f := range extract.Extract(append(req, body...)) {
			for _, d := range an.AnalyzeFrame(f.Data) {
				templates[d.Template]++
				hit = true
			}
		}
		if hit {
			alerted++
		}
	}
	names := make([]string, 0, len(templates))
	for t, n := range templates {
		names = append(names, fmt.Sprintf("%s x%d", t, n))
	}
	sort.Strings(names)
	return fmt.Sprintf("false-alert probe: %d of %d benign binary uploads alerted [%s]", alerted, probeUploads, strings.Join(names, ", "))
}
