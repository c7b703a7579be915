package fed

import (
	"net/netip"
	"strconv"
	"unicode/utf8"

	"semnids/internal/core"
	"semnids/internal/incident"
	"semnids/internal/lineage"
)

// This file is the writer's record encoder: every record kind appended
// by hand into a reused buffer, byte for byte what encoding/json's
// Marshal writes for the wireRecord envelope — field order, omitempty,
// null for a nil slice that is not omitempty, netip.Addr as its text
// form, and json's string escaping (HTML characters, U+2028/U+2029,
// invalid UTF-8 as \ufffd). encoding/json stays the decoder, and the
// tests hold this encoder to json.Marshal on every record kind.

// appendRecord appends rec's JSON document to dst.
func appendRecord(dst []byte, rec *wireRecord) []byte {
	dst = append(dst, `{"k":`...)
	dst = appendString(dst, rec.Kind)
	if rec.Hdr != nil {
		dst = appendHeader(append(dst, `,"hdr":`...), rec.Hdr)
	}
	if rec.Ckpt != nil {
		dst = appendMark(append(dst, `,"ckpt":`...), rec.Ckpt)
	}
	if rec.Src != nil {
		dst = appendSource(append(dst, `,"src":`...), rec.Src)
	}
	if rec.Cls != nil {
		dst = appendClassifier(append(dst, `,"cls":`...), rec.Cls)
	}
	if rec.Lin != nil {
		dst = appendObservation(append(dst, `,"lin":`...), rec.Lin)
	}
	if rec.End != nil {
		dst = appendMark(append(dst, `,"end":`...), rec.End)
	}
	return append(dst, '}')
}

func appendHeader(dst []byte, h *header) []byte {
	dst = append(dst, `{"format":`...)
	dst = appendString(dst, h.Format)
	dst = appendInt(append(dst, `,"version":`...), h.Version)
	dst = appendStrings(append(dst, `,"sensors":`...), h.Sensors)
	dst = appendUint(append(dst, `,"window_us":`...), h.WindowUS)
	dst = appendInt(append(dst, `,"fanout_threshold":`...), h.FanoutThreshold)
	dst = appendInt(append(dst, `,"limits":{"max_destinations":`...), h.Limits.MaxDestinations)
	dst = appendInt(append(dst, `,"max_alerts":`...), h.Limits.MaxAlerts)
	dst = appendInt(append(dst, `,"max_fingerprints":`...), h.Limits.MaxFingerprints)
	dst = appendInt(append(dst, `,"max_victims":`...), h.Limits.MaxVictims)
	return append(dst, "}}"...)
}

func appendMark(dst []byte, m *checkpointMark) []byte {
	dst = appendUint(append(dst, `{"seq":`...), m.Seq)
	dst = appendInt(append(dst, `,"count":`...), m.Count)
	if m.Cls != 0 {
		dst = appendInt(append(dst, `,"cls":`...), m.Cls)
	}
	if m.Lin != 0 {
		dst = appendInt(append(dst, `,"lin":`...), m.Lin)
	}
	if len(m.Sensors) > 0 {
		dst = appendStrings(append(dst, `,"sensors":`...), m.Sensors)
	}
	return append(dst, '}')
}

func appendSource(dst []byte, ev *incident.SourceEvidence) []byte {
	dst = appendAddr(append(dst, `{"src":`...), ev.Src)
	if len(ev.Sensors) > 0 {
		dst = appendStrings(append(dst, `,"sensors":`...), ev.Sensors)
	}
	dst = appendString(append(dst, `,"stage":`...), ev.Stage)
	dst = appendOptUint(dst, `,"first_us":`, ev.FirstUS)
	dst = appendOptUint(dst, `,"last_us":`, ev.LastUS)
	dst = appendOptUint(dst, `,"last_seen_us":`, ev.LastSeenUS)
	if len(ev.Dests) > 0 {
		dst = append(dst, `,"dests":[`...)
		for i, d := range ev.Dests {
			dst = appendAddr(appendElem(dst, i, `{"addr":`), d.Addr)
			dst = appendUint(append(dst, `,"first_us":`...), d.FirstUS)
			dst = appendUint(append(dst, `,"last_us":`...), d.LastUS)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(ev.Alerts) > 0 {
		dst = append(dst, `,"alerts":[`...)
		for i, a := range ev.Alerts {
			dst = appendUint(appendElem(dst, i, `{"ts_us":`), a.TsUS)
			dst = appendAddr(append(dst, `,"dst":`...), a.Dst)
			if a.Template != "" {
				dst = appendString(append(dst, `,"template":`...), a.Template)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = appendOptUint(dst, `,"exploit_at_us":`, ev.ExploitAtUS)
	if ev.Severity != "" {
		dst = appendString(append(dst, `,"severity":`...), ev.Severity)
	}
	if len(ev.Templates) > 0 {
		dst = appendStrings(append(dst, `,"templates":`...), ev.Templates)
	}
	if len(ev.TargetedBy) > 0 {
		dst = append(dst, `,"targeted_by":[`...)
		for i, fa := range ev.TargetedBy {
			dst = appendFingerprint(appendElem(dst, i, `{"fp":`), fa.Fingerprint)
			dst = append(dst, `,"refs":`...)
			if fa.Refs == nil {
				dst = append(dst, "null"...)
			} else {
				dst = append(dst, '[')
				for j, r := range fa.Refs {
					dst = appendAddr(appendElem(dst, j, `{"attacker":`), r.Attacker)
					dst = appendUint(append(dst, `,"ts_us":`...), r.TsUS)
					dst = append(dst, '}')
				}
				dst = append(dst, ']')
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(ev.Emitted) > 0 {
		dst = append(dst, `,"emitted":[`...)
		for i, e := range ev.Emitted {
			dst = appendFingerprint(appendElem(dst, i, `{"fp":`), e.Fingerprint)
			dst = appendUint(append(dst, `,"first_us":`...), e.FirstUS)
			dst = appendUint(append(dst, `,"last_us":`...), e.LastUS)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = appendOptUint(dst, `,"propagation_at_us":`, ev.PropagationAtUS)
	if len(ev.Victims) > 0 {
		dst = append(dst, `,"victims":[`...)
		for i, v := range ev.Victims {
			dst = appendAddr(appendElem(dst, i, `{"addr":`), v.Addr)
			dst = appendUint(append(dst, `,"echo_us":`...), v.EchoUS)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendClassifier(dst []byte, c *incident.ClassifierEvidence) []byte {
	dst = appendAddr(append(dst, `{"src":`...), c.Src)
	dst = appendOptUint(dst, `,"suspicious_until_us":`, c.SuspiciousUntilUS)
	if len(c.Dark) > 0 {
		dst = append(dst, `,"dark":[`...)
		for i, d := range c.Dark {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendAddr(dst, d)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendObservation(dst []byte, o *lineage.Observation) []byte {
	dst = appendFingerprint(append(dst, `{"exact":`...), o.Exact)
	dst = appendFingerprint(append(dst, `,"tail":`...), o.Tail)
	dst = appendOptUint(dst, `,"template_sym":`, o.TemplateSym)
	dst = appendOptUint(dst, `,"stmts_sym":`, o.StmtsSym)
	dst = appendUint(append(dst, `,"first_us":`...), o.FirstUS)
	dst = appendAddr(append(dst, `,"src":`...), o.Src)
	dst = appendAddr(append(dst, `,"dst":`...), o.Dst)
	if len(o.Sensors) > 0 {
		dst = appendStrings(append(dst, `,"sensors":`...), o.Sensors)
	}
	return append(dst, '}')
}

// appendElem appends the opening of array element i: the separator
// before every element but the first, then open.
func appendElem(dst []byte, i int, open string) []byte {
	if i > 0 {
		dst = append(dst, ',')
	}
	return append(dst, open...)
}

func appendFingerprint(dst []byte, fp core.Fingerprint) []byte {
	dst = appendUint(append(dst, `{"A":`...), fp.A)
	dst = appendUint(append(dst, `,"B":`...), fp.B)
	dst = appendInt(append(dst, `,"N":`...), fp.N)
	return append(dst, '}')
}

func appendUint(dst []byte, v uint64) []byte { return strconv.AppendUint(dst, v, 10) }

func appendInt(dst []byte, v int) []byte { return strconv.AppendInt(dst, int64(v), 10) }

// appendOptUint appends an omitempty integer field.
func appendOptUint(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return appendUint(append(dst, key...), v)
}

// appendStrings appends a string array; nil is null, as json writes a
// nil slice.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendAddr appends an address as json writes its MarshalText form:
// "" for the zero address, dotted quad, RFC 5952 IPv6 (::ffff:a.b.c.d
// when IPv4-mapped), and a zone after '%'. The zone is the only part
// that can hold characters json escapes.
func appendAddr(dst []byte, a netip.Addr) []byte {
	dst = append(dst, '"')
	zone := a.Zone()
	dst = a.WithZone("").AppendTo(dst)
	if zone != "" {
		dst = appendStringBody(append(dst, '%'), zone)
	}
	return append(dst, '"')
}

// appendString appends s as a JSON string with encoding/json's
// escaping (HTML-safe).
func appendString(dst []byte, s string) []byte {
	return append(appendStringBody(append(dst, '"'), s), '"')
}

const hexDigits = "0123456789abcdef"

// appendStringBody is appendString without the quotes.
func appendStringBody(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(dst, s[start:]...)
}
