// Package fed federates incident evidence across sensors: a
// versioned, length-prefixed JSONL wire format for the correlator's
// evidence exports, a durable size/age-rotated sink with crash
// recovery (so a long-running sensor survives restarts with its
// attacker state intact), and a commutative, idempotent merge that
// folds N sensors' exports into one deterministic incident report.
//
// Wire format. A segment is a stream of framed records:
//
//	<len> <json>\n
//
// where <len> is the decimal byte length of the JSON document (ASCII,
// at most 7 digits, bounded by MaxRecordBytes so a corrupt prefix can
// never drive an over-allocation) and the JSON document is a
// wireRecord envelope. The first record of a segment is a header
// ("hdr": format name, version, sensor provenance, correlation
// parameters). Evidence follows in checkpoint groups — a "ckpt" mark,
// the per-source "src" records, then an "end" commit mark echoing the
// checkpoint sequence and count. A group missing its commit mark (a
// crash mid-write, a truncated copy) is ignored by the decoder, which
// returns the newest *committed* checkpoint; the framing makes
// truncation detectable at every byte.
package fed

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"semnids/internal/incident"
	"semnids/internal/lineage"
)

const (
	// FormatName identifies evidence segments.
	FormatName = "semnids-evidence"
	// Version is the wire version this build reads and writes. A
	// decoder rejects any other major version (version skew must be an
	// error, never a misparse).
	Version = 1
	// MaxRecordBytes bounds one framed record: the decoder refuses
	// larger claims before allocating.
	MaxRecordBytes = 1 << 20

	maxLenDigits = 7
)

// Record kinds.
const (
	kindHeader     = "hdr"
	kindCheckpoint = "ckpt"
	kindSource     = "src"
	kindClassifier = "cls"
	kindLineage    = "lin"
	kindCommit     = "end"
)

// header is the first record of every segment.
type header struct {
	Format          string                  `json:"format"`
	Version         int                     `json:"version"`
	Sensors         []string                `json:"sensors"`
	WindowUS        uint64                  `json:"window_us"`
	FanoutThreshold int                     `json:"fanout_threshold"`
	Limits          incident.EvidenceLimits `json:"limits"`
}

// checkpointMark opens ("ckpt") and commits ("end") one evidence
// snapshot of Count source records plus Cls classifier records. The
// opening mark also carries the snapshot's sensor provenance: unlike
// the correlation parameters, the sensor set can grow between
// checkpoints of one segment (an aggregator folding new sensors, an
// engine importing foreign evidence), so it belongs to the snapshot,
// not the segment. Absent (older segments), the header's list stands.
type checkpointMark struct {
	Seq     uint64   `json:"seq"`
	Count   int      `json:"count"`
	Cls     int      `json:"cls,omitempty"`
	Lin     int      `json:"lin,omitempty"`
	Sensors []string `json:"sensors,omitempty"`
}

// wireRecord is the JSON envelope behind every frame.
type wireRecord struct {
	Kind string                       `json:"k"`
	Hdr  *header                      `json:"hdr,omitempty"`
	Ckpt *checkpointMark              `json:"ckpt,omitempty"`
	Src  *incident.SourceEvidence     `json:"src,omitempty"`
	Cls  *incident.ClassifierEvidence `json:"cls,omitempty"`
	Lin  *lineage.Observation         `json:"lin,omitempty"`
	End  *checkpointMark              `json:"end,omitempty"`
}

// ErrNoCheckpoint reports a segment with a valid header but no
// committed checkpoint — a sensor that crashed before its first
// complete write.
var ErrNoCheckpoint = errors.New("fed: segment has no committed checkpoint")

// frameEncoder frames records into reusable buffers. It is the one
// framing implementation: WriteExport and the sink (headers, marks and
// its per-source frame cache) all go through it, so a cached frame is
// byte for byte what a fresh encode writes.
type frameEncoder struct {
	json bytes.Buffer
	enc  *json.Encoder
	out  []byte
}

// appendFrame appends rec's frame — "<len> <json>\n" — to dst.
// json.Encoder writes exactly json.Marshal's bytes (HTML escaping on)
// plus the newline the frame ends with.
func (fe *frameEncoder) appendFrame(dst []byte, rec *wireRecord) ([]byte, error) {
	if fe.enc == nil {
		fe.enc = json.NewEncoder(&fe.json)
	}
	fe.json.Reset()
	if err := fe.enc.Encode(rec); err != nil {
		return dst, err
	}
	data := fe.json.Bytes()
	n := len(data) - 1
	if n > MaxRecordBytes {
		return dst, fmt.Errorf("fed: record of %d bytes exceeds the %d-byte wire bound", n, MaxRecordBytes)
	}
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, ' ')
	return append(dst, data...), nil
}

// write frames one record onto w.
func (fe *frameEncoder) write(w *bufio.Writer, rec *wireRecord) error {
	var err error
	if fe.out, err = fe.appendFrame(fe.out[:0], rec); err != nil {
		return err
	}
	_, err = w.Write(fe.out)
	return err
}

// readRecord decodes one frame. io.EOF means a clean end between
// records; any other error means the stream is corrupt or truncated
// at this record.
func readRecord(br *bufio.Reader) (*wireRecord, error) {
	n := 0
	digits := 0
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && digits == 0 {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("fed: truncated length prefix: %w", err)
		}
		if b == ' ' {
			if digits == 0 {
				return nil, errors.New("fed: empty length prefix")
			}
			break
		}
		if b < '0' || b > '9' {
			return nil, fmt.Errorf("fed: bad length prefix byte %q", b)
		}
		digits++
		if digits > maxLenDigits {
			return nil, errors.New("fed: oversized length prefix")
		}
		n = n*10 + int(b-'0')
	}
	if n == 0 || n > MaxRecordBytes {
		return nil, fmt.Errorf("fed: record length %d outside (0, %d]", n, MaxRecordBytes)
	}
	buf := make([]byte, n+1)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("fed: truncated record: %w", err)
	}
	if buf[n] != '\n' {
		return nil, errors.New("fed: record missing terminator")
	}
	rec := &wireRecord{}
	if err := json.Unmarshal(buf[:n], rec); err != nil {
		return nil, fmt.Errorf("fed: bad record JSON: %w", err)
	}
	return rec, nil
}

// headerFor renders an export's parameters as a segment header.
func headerFor(ex *incident.EvidenceExport) *header {
	return &header{
		Format:          FormatName,
		Version:         Version,
		Sensors:         ex.Sensors,
		WindowUS:        ex.WindowUS,
		FanoutThreshold: ex.FanoutThreshold,
		Limits:          ex.Limits,
	}
}

// writeCheckpoint appends one committed evidence snapshot of count
// source records, which writeSources frames in address order between
// the opening mark and the classifier records. The commit mark echoes
// the opening mark's counts but not the sensors — the decoder
// validates the group on seq and counts alone. Lineage ("lin")
// records are a minor-format addition within Version 1: the opening
// mark declares their count and older decoders skip unknown kinds, so
// segments with lineage remain readable by pre-lineage builds (which
// simply drop the ancestry plane).
func writeCheckpoint(w *bufio.Writer, fe *frameEncoder, seq uint64, ex *incident.EvidenceExport,
	count int, writeSources func(*bufio.Writer) error) error {
	open := &checkpointMark{Seq: seq, Count: count, Cls: len(ex.Classifier), Lin: len(ex.Lineage), Sensors: ex.Sensors}
	if err := fe.write(w, &wireRecord{Kind: kindCheckpoint, Ckpt: open}); err != nil {
		return err
	}
	if err := writeSources(w); err != nil {
		return err
	}
	for i := range ex.Classifier {
		if err := fe.write(w, &wireRecord{Kind: kindClassifier, Cls: &ex.Classifier[i]}); err != nil {
			return err
		}
	}
	for i := range ex.Lineage {
		if err := fe.write(w, &wireRecord{Kind: kindLineage, Lin: &ex.Lineage[i]}); err != nil {
			return err
		}
	}
	end := &checkpointMark{Seq: seq, Count: open.Count, Cls: open.Cls, Lin: open.Lin}
	return fe.write(w, &wireRecord{Kind: kindCommit, End: end})
}

// WriteExport serializes an evidence export as one complete segment:
// header plus a single committed checkpoint. It is the reference
// encoding: every sink checkpoint writes exactly the group this
// writes for the full export at that instant.
func WriteExport(w io.Writer, ex *incident.EvidenceExport) error {
	bw := bufio.NewWriter(w)
	var fe frameEncoder
	if err := fe.write(bw, &wireRecord{Kind: kindHeader, Hdr: headerFor(ex)}); err != nil {
		return err
	}
	err := writeCheckpoint(bw, &fe, 1, ex, len(ex.Sources), func(bw *bufio.Writer) error {
		for i := range ex.Sources {
			if err := fe.write(bw, &wireRecord{Kind: kindSource, Src: &ex.Sources[i]}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadExport decodes a segment, returning the newest committed
// checkpoint as an evidence export. Corruption or truncation after a
// committed checkpoint is tolerated (the committed state is
// returned); a segment with no committed checkpoint, a bad header, or
// a version this build does not speak is an error.
func ReadExport(r io.Reader) (*incident.EvidenceExport, error) {
	br := bufio.NewReader(r)
	rec, err := readRecord(br)
	if err != nil {
		if err == io.EOF {
			return nil, errors.New("fed: empty segment")
		}
		return nil, err
	}
	if rec.Kind != kindHeader || rec.Hdr == nil {
		return nil, fmt.Errorf("fed: segment does not start with a header (got %q)", rec.Kind)
	}
	hdr := rec.Hdr
	if hdr.Format != FormatName {
		return nil, fmt.Errorf("fed: unknown format %q", hdr.Format)
	}
	if hdr.Version != Version {
		return nil, fmt.Errorf("fed: wire version %d not supported (this build speaks %d)", hdr.Version, Version)
	}
	// Correlation parameters are part of the evidence semantics: a
	// zero window, threshold or cap describes no correlator this
	// build can run, so a crafted or hand-edited header fails here,
	// not deeper in derivation.
	if hdr.WindowUS == 0 || hdr.FanoutThreshold <= 0 ||
		hdr.Limits.MaxDestinations <= 0 || hdr.Limits.MaxAlerts <= 0 ||
		hdr.Limits.MaxFingerprints <= 0 || hdr.Limits.MaxVictims <= 0 {
		return nil, fmt.Errorf("fed: header carries invalid correlation parameters (window=%d fanout=%d limits=%+v)",
			hdr.WindowUS, hdr.FanoutThreshold, hdr.Limits)
	}

	ex := &incident.EvidenceExport{
		Sensors:         hdr.Sensors,
		WindowUS:        hdr.WindowUS,
		FanoutThreshold: hdr.FanoutThreshold,
		Limits:          hdr.Limits,
	}
	var committed []incident.SourceEvidence
	var committedCls []incident.ClassifierEvidence
	var committedLin []lineage.Observation
	committedSensors := hdr.Sensors
	haveCommit := false

	var pending []incident.SourceEvidence
	var pendingCls []incident.ClassifierEvidence
	var pendingLin []lineage.Observation
	var open *checkpointMark
	drop := func() {
		open, pending, pendingCls, pendingLin = nil, nil, nil, nil
	}
	for {
		rec, err := readRecord(br)
		if err != nil {
			// Clean EOF between records ends the segment; anything else
			// is a truncated tail — either way the newest committed
			// checkpoint stands.
			break
		}
		switch rec.Kind {
		case kindCheckpoint:
			if rec.Ckpt == nil || rec.Ckpt.Count < 0 || rec.Ckpt.Cls < 0 || rec.Ckpt.Lin < 0 {
				drop()
				continue
			}
			open = rec.Ckpt
			pending = pending[:0]
			pendingCls = pendingCls[:0]
			pendingLin = pendingLin[:0]
		case kindSource:
			if open == nil || rec.Src == nil || len(pending) >= open.Count {
				drop()
				continue
			}
			pending = append(pending, *rec.Src)
		case kindClassifier:
			if open == nil || rec.Cls == nil || len(pendingCls) >= open.Cls {
				drop()
				continue
			}
			pendingCls = append(pendingCls, *rec.Cls)
		case kindLineage:
			if open == nil || rec.Lin == nil || len(pendingLin) >= open.Lin {
				drop()
				continue
			}
			pendingLin = append(pendingLin, *rec.Lin)
		case kindCommit:
			if open == nil || rec.End == nil || rec.End.Seq != open.Seq || rec.End.Count != open.Count ||
				rec.End.Cls != open.Cls || rec.End.Lin != open.Lin ||
				len(pending) != open.Count || len(pendingCls) != open.Cls || len(pendingLin) != open.Lin {
				drop()
				continue
			}
			committed = append(committed[:0], pending...)
			committedCls = append(committedCls[:0], pendingCls...)
			committedLin = append(committedLin[:0], pendingLin...)
			if open.Sensors != nil {
				committedSensors = open.Sensors
			}
			haveCommit = true
			drop()
		default:
			// Unknown minor-format record: skip (framing still holds).
		}
	}
	if !haveCommit {
		return nil, ErrNoCheckpoint
	}
	ex.Sensors = committedSensors
	ex.Sources = committed
	ex.Classifier = committedCls
	ex.Lineage = committedLin
	return ex, nil
}

// Merge federates two evidence exports — the union of their evidence
// under shared caps, propagation re-derived across sensors,
// provenance preserved per record. Commutative and idempotent; see
// incident.MergeExports for the semantics.
func Merge(a, b *incident.EvidenceExport) (*incident.EvidenceExport, error) {
	return incident.MergeExports(a, b)
}
