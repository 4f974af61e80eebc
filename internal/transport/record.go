package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// Record framing. Every record on a connection is
//
//	u32 magic   0xAACCF4A3 — the resynchronisation anchor
//	u32 seq     round-attempt sequence number
//	u32 size    payload length; 0xFFFFFFFF marks the round terminator
//	u32 crc     CRC-32 (IEEE) of the 12 header bytes above ++ payload
//	size bytes of payload (terminators carry none)
//
// The magic lets a reader that lost framing (truncated write, corrupted
// header) scan forward to the next plausible record; the seq lets it discard
// leftovers of an aborted round; the CRC catches corrupted payloads and
// headers whose magic survived.
const (
	recordMagic  = 0xAACCF4A3
	recordHdrLen = 16
	terminator   = ^uint32(0)
	// maxResyncSkip bounds how far a reader scans for a record boundary
	// before declaring the stream unrecoverable.
	maxResyncSkip = 1 << 20
)

func putRecordHeader(hdr []byte, seq, size uint32) {
	binary.LittleEndian.PutUint32(hdr[0:4], recordMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], seq)
	binary.LittleEndian.PutUint32(hdr[8:12], size)
}

// writeFrame writes one data record whose payload is tag ++ frame (tag may
// be nil), as two writes: header and tag, then frame. The tag lets a caller
// prefix routing bytes without copying the frame.
func writeFrame(conn net.Conn, seq uint32, tag, frame []byte) error {
	var buf [recordHdrLen + peerTagLen]byte
	hdr := buf[:recordHdrLen+len(tag)]
	putRecordHeader(hdr, seq, uint32(len(tag)+len(frame)))
	copy(hdr[recordHdrLen:], tag)
	crc := crc32.Update(0, crc32.IEEETable, hdr[:12])
	crc = crc32.Update(crc, crc32.IEEETable, tag)
	crc = crc32.Update(crc, crc32.IEEETable, frame)
	binary.LittleEndian.PutUint32(hdr[12:16], crc)
	if _, err := conn.Write(hdr); err != nil {
		return err
	}
	_, err := conn.Write(frame)
	return err
}

func writeTerminator(conn net.Conn, seq uint32) error {
	var hdr [recordHdrLen]byte
	putRecordHeader(hdr[:], seq, terminator)
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(hdr[:12]))
	_, err := conn.Write(hdr[:])
	return err
}

// readRecords reads one round's records from br: data frames followed by the
// round terminator, all stamped with sequence number want. Each in-round
// frame's payload is handed to onFrame (which may reject it with an error).
// Records from earlier rounds (leftovers of an aborted attempt) are drained
// silently; corrupted headers trigger a bounded scan for the next record
// boundary.
func readRecords(br *bufio.Reader, want uint32, maxFrame int, onFrame func(payload []byte) error) error {
	skipped := 0
	resync := func(n int) error {
		skipped += n
		if skipped > maxResyncSkip {
			return fmt.Errorf("framing lost: no record boundary within %d bytes", maxResyncSkip)
		}
		_, err := br.Discard(n)
		return err
	}
	for {
		hdr, err := br.Peek(recordHdrLen)
		if err != nil {
			return err
		}
		if binary.LittleEndian.Uint32(hdr[0:4]) != recordMagic {
			if err := resync(1); err != nil {
				return err
			}
			continue
		}
		seq := binary.LittleEndian.Uint32(hdr[4:8])
		size := binary.LittleEndian.Uint32(hdr[8:12])
		crc := binary.LittleEndian.Uint32(hdr[12:16])
		if size == terminator {
			if crc32.ChecksumIEEE(hdr[:12]) != crc {
				// A record that looks like a terminator but fails its
				// header CRC: corruption that preserved the magic.
				if err := resync(1); err != nil {
					return err
				}
				continue
			}
			br.Discard(recordHdrLen)
			if seq == want {
				return nil
			}
			if seqAfter(seq, want) {
				return fmt.Errorf("terminator from future round %d while reading round %d", seq, want)
			}
			continue // stale terminator: drain and keep reading
		}
		if int64(size) > int64(maxFrame) {
			// A corrupt length header is a resync condition, not an
			// allocation request.
			if err := resync(1); err != nil {
				return err
			}
			continue
		}
		hdrCRC := crc32.Update(0, crc32.IEEETable, hdr[:12])
		br.Discard(recordHdrLen)
		if seq != want {
			if seqAfter(seq, want) {
				return fmt.Errorf("frame from future round %d while reading round %d", seq, want)
			}
			// Stale frame from an aborted round: drain its payload.
			if _, err := br.Discard(int(size)); err != nil {
				return err
			}
			continue
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(br, payload); err != nil {
			return err
		}
		if crc32.Update(hdrCRC, crc32.IEEETable, payload) != crc {
			return fmt.Errorf("frame crc mismatch in round %d", want)
		}
		if err := onFrame(payload); err != nil {
			return err
		}
	}
}

// seqAfter reports whether a is a later sequence number than b, tolerating
// wraparound.
func seqAfter(a, b uint32) bool { return int32(a-b) > 0 }

// Control-stream record helpers. The coordinator protocol frames its
// messages exactly like exchange records (magic, sequence, size, CRC) but
// over a single ordered connection: no terminators, no stale-round drains —
// any out-of-sequence or corrupt record is a protocol error, because nothing
// legitimate can reorder a lone TCP stream.

// WriteRecord frames one message with sequence number seq onto conn.
func WriteRecord(conn net.Conn, seq uint32, payload []byte) error {
	return writeFrame(conn, seq, nil, payload)
}

// ReadRecord reads exactly one framed record from br and checks it carries
// sequence number want. maxFrame caps the accepted payload size (<=0 selects
// the default).
func ReadRecord(br *bufio.Reader, want uint32, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = Config{}.Normalize().MaxFrame
	}
	var hdr [recordHdrLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != recordMagic {
		return nil, fmt.Errorf("transport: control record with bad magic %#x", m)
	}
	seq := binary.LittleEndian.Uint32(hdr[4:8])
	size := binary.LittleEndian.Uint32(hdr[8:12])
	crc := binary.LittleEndian.Uint32(hdr[12:16])
	if size == terminator {
		return nil, fmt.Errorf("transport: unexpected terminator on control stream (record %d)", seq)
	}
	if int64(size) > int64(maxFrame) {
		return nil, fmt.Errorf("transport: control record of %d bytes exceeds frame cap %d", size, maxFrame)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, err
	}
	sum := crc32.Update(0, crc32.IEEETable, hdr[:12])
	if crc32.Update(sum, crc32.IEEETable, payload) != crc {
		return nil, fmt.Errorf("transport: control record %d fails its crc", seq)
	}
	if seq != want {
		return nil, fmt.Errorf("transport: control record seq %d, want %d", seq, want)
	}
	return payload, nil
}
