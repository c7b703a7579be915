package extract

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync"
)

// CoAP extraction (RFC 7252): the constrained-device protocol IoT
// deployments run over UDP. CoAP has no length framing of its own —
// one message is exactly one datagram — so this extractor works on the
// datagram-flow view (concatenated payloads plus per-datagram
// boundaries) rather than a byte stream. Its job mirrors the SMTP
// extractor's: recognize conformant protocol usage, reassemble the
// one place the protocol legitimately splits content across messages
// (block-wise transfer, RFC 7959), and forward only plausible
// executable content to the semantic stages. Shellcode sprayed across
// Block1/Block2 transfers in 16-byte slices is invisible to
// per-packet analysis — every slice is below MinBinaryWindow — and
// only becomes detectable on the reassembled body.

// CoAP option numbers the extractor interprets.
const (
	coapOptBlock2 = 23 // RFC 7959 Block2 (response payload blocks)
	coapOptBlock1 = 27 // RFC 7959 Block1 (request payload blocks)
)

// coapMsg is one parsed CoAP message.
type coapMsg struct {
	typ          byte // CON/NON/ACK/RST (2 bits)
	code         byte // class.detail request/response code
	msgID        uint16
	token        []byte
	hasB1, hasB2 bool
	block1       uint32 // raw block option value: NUM<<4 | M<<3 | SZX
	block2       uint32
	payload      []byte
	payloadOff   int // payload start offset within the datagram
}

// blockNum extracts the block sequence number from a raw block value.
func blockNum(v uint32) uint32 { return v >> 4 }

// blockMore reports the block value's M (more blocks follow) bit.
func blockMore(v uint32) bool { return v>>3&1 == 1 }

// coapUint decodes a 0-3 byte big-endian option value.
func coapUint(b []byte) uint32 {
	var v uint32
	for _, c := range b {
		v = v<<8 | uint32(c)
	}
	return v
}

// coapExt resolves an option-header nibble with its RFC 7252 extended
// forms: 13 adds one extension byte (+13), 14 adds two (+269), 15 is
// reserved (invalid outside the payload marker).
func coapExt(d []byte, i, nib int) (val, next int, ok bool) {
	switch nib {
	case 13:
		if i >= len(d) {
			return 0, 0, false
		}
		return int(d[i]) + 13, i + 1, true
	case 14:
		if i+1 >= len(d) {
			return 0, 0, false
		}
		return int(binary.BigEndian.Uint16(d[i:i+2])) + 269, i + 2, true
	case 15:
		return 0, 0, false
	}
	return nib, i, true
}

// parseCoAP decodes one datagram as a CoAP message, walking the full
// option chain. It is strict — version must be 1, the token length
// and every option must fit, reserved code classes are rejected — so
// that random binary (DNS responses, raw exploit payloads) does not
// masquerade as CoAP.
func parseCoAP(d []byte) (coapMsg, bool) {
	var m coapMsg
	if len(d) < 4 || d[0]>>6 != 1 {
		return m, false
	}
	tkl := int(d[0] & 0x0f)
	if tkl > 8 || len(d) < 4+tkl {
		return m, false
	}
	m.typ = d[0] >> 4 & 3
	m.code = d[1]
	switch m.code >> 5 {
	case 1, 6, 7: // reserved code classes
		return m, false
	}
	if m.code == 0 && (tkl != 0 || len(d) != 4) {
		// An Empty message is exactly the 4-byte header.
		return m, false
	}
	m.msgID = binary.BigEndian.Uint16(d[2:4])
	m.token = d[4 : 4+tkl]

	i := 4 + tkl
	opt := 0
	for i < len(d) {
		if d[i] == 0xff {
			if i+1 >= len(d) {
				return m, false // payload marker with empty payload
			}
			m.payloadOff = i + 1
			m.payload = d[i+1:]
			return m, true
		}
		deltaNib := int(d[i] >> 4)
		lenNib := int(d[i] & 0x0f)
		i++
		delta, ni, ok := coapExt(d, i, deltaNib)
		if !ok {
			return m, false
		}
		olen, ni2, ok := coapExt(d, ni, lenNib)
		if !ok || ni2+olen > len(d) {
			return m, false
		}
		opt += delta
		val := d[ni2 : ni2+olen]
		switch opt {
		case coapOptBlock1:
			if olen > 3 {
				return m, false
			}
			m.hasB1, m.block1 = true, coapUint(val)
		case coapOptBlock2:
			if olen > 3 {
				return m, false
			}
			m.hasB2, m.block2 = true, coapUint(val)
		}
		i = ni2 + olen
	}
	return m, true
}

// IsCoAP reports whether the datagram parses as a complete CoAP
// message.
func IsCoAP(data []byte) bool {
	_, ok := parseCoAP(data)
	return ok
}

// coapBlock is one block of a block-wise transfer: the transfer it
// belongs to (index in first-appearance order), its block number, and
// its payload's span in the flow data.
type coapBlock struct {
	xfer     int
	num      uint32
	from, to int
}

// coapToken is a CoAP token (at most 8 bytes) as a comparable map key.
type coapToken struct {
	n int
	b [8]byte
}

// coapFlowScratch is extractCoAPFlow's working state, pooled so that
// walking a conversation allocates nothing but the frames it forwards.
type coapFlowScratch struct {
	xfers   map[coapToken]int // token -> transfer index
	offsets []int             // transfer index -> absolute offset of its first-seen block's payload
	blocks  []coapBlock
	body    []byte
}

var coapScratchPool = sync.Pool{New: func() any {
	return &coapFlowScratch{xfers: make(map[coapToken]int)}
}}

// ExtractDatagrams is the extraction entry point for datagram flows:
// data is the in-order concatenation of a flow's datagram payloads and
// bounds holds each datagram's start offset. A single-datagram flow is
// handed to Extract unchanged — byte-identical behavior with the plain
// per-packet path. A multi-datagram CoAP conversation is walked
// message by message with block-wise transfers reassembled; anything
// else falls back to Extract over the concatenation (the streaming
// treatment multi-datagram text carriers get).
func ExtractDatagrams(data []byte, bounds []int) []Frame {
	if len(bounds) <= 1 {
		return Extract(data)
	}
	// Defensive: bounds must be strictly increasing offsets into data
	// starting at 0; anything else gets stream treatment.
	for i, b := range bounds {
		if b >= len(data) || (i == 0 && b != 0) || (i > 0 && b <= bounds[i-1]) {
			return Extract(data)
		}
	}
	if !IsCoAP(data[bounds[0]:bounds[1]]) {
		return Extract(data)
	}
	return extractCoAPFlow(data, bounds)
}

// extractCoAPFlow walks each datagram of a CoAP conversation:
// block-wise transfers are grouped by token, reordered by block
// number, and the reassembled body forwarded when it looks
// executable; immediate (non-block) payloads are forwarded under the
// same gate. Datagrams that fail the CoAP parse mid-flow (protocol
// confusion, injected raw payloads) still get the raw-binary scan.
func extractCoAPFlow(data []byte, bounds []int) []Frame {
	sc := coapScratchPool.Get().(*coapFlowScratch)
	defer coapScratchPool.Put(sc)
	clear(sc.xfers)
	sc.offsets, sc.blocks = sc.offsets[:0], sc.blocks[:0]

	var frames []Frame
	for i, start := range bounds {
		end := len(data)
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		msg := data[start:end]
		m, ok := parseCoAP(msg)
		if !ok {
			for _, f := range extractRaw(msg) {
				f.Offset += start
				frames = append(frames, f)
			}
			continue
		}
		if len(m.payload) == 0 {
			continue
		}
		if m.hasB1 || m.hasB2 {
			blk := m.block1
			if !m.hasB1 {
				blk = m.block2
			}
			var tok coapToken
			tok.n = copy(tok.b[:], m.token)
			x, seen := sc.xfers[tok]
			if !seen {
				x = len(sc.offsets)
				sc.xfers[tok] = x
				sc.offsets = append(sc.offsets, start+m.payloadOff)
			}
			from := start + m.payloadOff
			sc.blocks = append(sc.blocks, coapBlock{xfer: x, num: blockNum(blk), from: from, to: from + len(m.payload)})
			continue
		}
		if looksExecutable(m.payload) {
			frames = append(frames, Frame{
				Data:   capFrame(m.payload),
				Source: "coap-payload",
				Offset: start + m.payloadOff,
			})
		}
	}

	// Transfers in first-appearance order, each body's blocks ordered
	// by block number; the stable sort keeps the first copy of a
	// retransmitted number ahead of later ones, and only that copy is
	// concatenated.
	slices.SortStableFunc(sc.blocks, func(a, b coapBlock) int {
		if a.xfer != b.xfer {
			return cmp.Compare(a.xfer, b.xfer)
		}
		return cmp.Compare(a.num, b.num)
	})
	for i := 0; i < len(sc.blocks); {
		x := sc.blocks[i].xfer
		sc.body = sc.body[:0]
		for prev := -1; i < len(sc.blocks) && sc.blocks[i].xfer == x; i++ {
			if b := &sc.blocks[i]; int(b.num) != prev {
				prev = int(b.num)
				sc.body = append(sc.body, data[b.from:b.to]...)
			}
		}
		if looksExecutable(sc.body) {
			frames = append(frames, Frame{
				Data:   slices.Clone(capFrame(sc.body)),
				Source: "coap-block",
				Offset: sc.offsets[x],
			})
		}
	}
	return frames
}
