package extract

import (
	"bytes"
	"math/rand"
	"testing"
)

// textProtocolCommandFields is the reference: the probe written over
// bytes.Fields of the whole first line.
func textProtocolCommandFields(payload []byte) (verb, rest []byte, ok bool) {
	line := payload
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	fields := bytes.Fields(line)
	if len(fields) == 0 {
		return nil, nil, false
	}
	match := func(f []byte) bool {
		for _, v := range textProtocolVerbs {
			if bytes.EqualFold(f, v) {
				return true
			}
		}
		return false
	}
	switch {
	case match(fields[0]):
		return fields[0], payload[len(fields[0]):], true
	case len(fields) >= 2 && match(fields[1]):
		off := bytes.Index(payload, fields[1])
		return fields[1], payload[off+len(fields[1]):], true
	}
	return nil, nil, false
}

// checkTextCommand compares the in-place probe with the reference on
// one payload: the same verdict, the same verb bytes and the same
// argument region of the payload.
func checkTextCommand(t *testing.T, payload []byte) {
	t.Helper()
	verb, rest, ok := textProtocolCommand(payload)
	wverb, wrest, wok := textProtocolCommandFields(payload)
	if ok != wok || !bytes.Equal(verb, wverb) || !bytes.Equal(rest, wrest) || len(rest) != len(wrest) {
		t.Fatalf("%q: got (%q, %q, %v), want (%q, %q, %v)", payload, verb, rest, ok, wverb, wrest, wok)
	}
}

var textCommandCases = []string{
	"",
	"   ",
	"USER anonymous\r\n",
	"user AAAA\x90\x90\x31\xc0",
	"a001 LOGIN bob secret\r\n",
	"a001\tlogin bob\r\n",
	"  USER leading-space\r\n",
	"\t\ta1 LOGIN leading-tab\r\n",
	"\u0085USER next-line-space",
	"\u00a0a1\u00a0LOGIN nbsp",
	"USER\u00a0x",
	"\x85USER invalid-utf8-not-space",
	"a1\x85 LOGIN",
	"\xff\xfe LOGIN x",
	"MAIL FROM:<a@b>\r\nDATA\r\n",
	"GET / HTTP/1.0\r\n",
	"first second third USER\r\n",
	"\nUSER after-newline",
	"USER",
	"x USER",
	"x\u2003USER em-space",
	"\x44\x01\x30\x39\x01\x02\x03\x04\xbb.well-known",
}

// TestTextProtocolCommandMatchesFields is the differential pin for the
// in-place field scan: the hand-picked shapes (leading whitespace,
// Unicode spaces U+0085/U+00A0/U+2003/U+2028, invalid UTF-8, tags, empty
// lines) and random mixes of verbs, spaces and binary must all agree
// with the bytes.Fields version.
func TestTextProtocolCommandMatchesFields(t *testing.T) {
	for _, c := range textCommandCases {
		checkTextCommand(t, []byte(c))
	}
	pieces := []string{"USER", "user", "LOGIN", "a001", " ", "\t", "\r", "\n", "\v", "\f",
		"\u0085", "\u00a0", "\u2028", "\u2003", "\x85", "\xa0", "\xc2", "\xff", "x", "\x00", "\u00e9"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var b []byte
		for n := rng.Intn(8); n >= 0; n-- {
			b = append(b, pieces[rng.Intn(len(pieces))]...)
		}
		checkTextCommand(t, b)
	}
}

// TestTextProtocolCommandAllocs pins the probe at zero allocations on
// a newline-free binary datagram, the shape bytes.Fields used to split
// whole.
func TestTextProtocolCommandAllocs(t *testing.T) {
	dgram := bytes.Repeat([]byte("\x44\x01 \x30\x39\xff\x90"), 64)
	if allocs := testing.AllocsPerRun(100, func() { textProtocolCommand(dgram) }); allocs != 0 {
		t.Fatalf("textProtocolCommand allocates %.1f times per call, want 0", allocs)
	}
}

func FuzzTextProtocolCommand(f *testing.F) {
	for _, c := range textCommandCases {
		f.Add([]byte(c))
	}
	f.Fuzz(checkTextCommand)
}
