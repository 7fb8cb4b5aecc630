// Package store is the embedded mission store: a dependency-light,
// append-only, format-versioned record log that persists what the
// observability plane (internal/obs, internal/spans) only holds in
// memory — mission metadata, per-tick telemetry snapshots, Algorithm
// 1/2 decisions, fault windows, per-tick critical-path summaries and
// the final mission summary — plus a query layer over it (list
// missions by outcome/seed/fault spec, per-mission VDP/energy time
// series, cross-mission fleet aggregates).
//
// Design goals, in order:
//
//   - Crash safety. Every record is length-prefixed and CRC-32
//     checksummed; on open the file is scanned and a torn or corrupt
//     tail is truncated, never fatal. A mission whose MissionEnd record
//     is missing is listed as unfinished, not lost.
//   - Near-zero hot-path cost. The write path is an asynchronous
//     batched Recorder whose methods are nil-safe no-ops when
//     recording is disabled (mirroring the obs/spans discipline) and
//     never block the mission engine: a full queue drops the record
//     and counts the drop instead.
//   - No dependencies. Standard library only, one file on disk, no
//     server process. The compact in-file index is the MissionEnd
//     record itself: it carries the mission's summary and the byte
//     offset of its MissionStart, so listing decodes only two small
//     records per mission.
//   - Fleet reads from memory. Fleet aggregation pools tick VDPs from
//     an in-memory column holding the mission index and VDP of every
//     tick record in file order. Recorders extend it as they commit;
//     the ticks recovered on open are decoded once, by the first fleet
//     read after it.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// File layout:
//
//	header:  magic "LGVSTOR1" (8 bytes) | u32 LE format version | u32 LE zero
//	record:  u32 LE payload length | u32 LE CRC-32 (IEEE) of payload | payload
//	payload: kind byte | uvarint mission index (1-based, store order) | JSON body
//
// The mission index inside each payload ties every record to its
// mission even when several recorders interleave records (the future
// -serve daemon multiplexes missions into one store), without
// repeating the mission ID string on every tick.
const (
	magic         = "LGVSTOR1"
	FormatVersion = 1
	headerSize    = 16
	frameSize     = 8 // length + checksum prefix per record

	// maxRecordSize bounds a single record so a corrupt length prefix
	// cannot trigger a huge allocation during recovery.
	maxRecordSize = 16 << 20
)

// Kind identifies a record type. Values are part of the on-disk format
// and must never be renumbered.
type Kind byte

const (
	// KindMissionStart opens a mission: metadata + the full scenario
	// spec when the producer has one.
	KindMissionStart Kind = 1
	// KindTick is one per-tick telemetry snapshot (VDP latency,
	// cumulative energy, Algorithm 2 inputs, velocity).
	KindTick Kind = 2
	// KindDecision is one adaptation decision (Algorithm 1/2 switch or
	// failover) with the inputs behind it.
	KindDecision Kind = 3
	// KindFault is one injected fault window.
	KindFault Kind = 4
	// KindSpanRow is the critical-path decomposition of one traced tick.
	KindSpanRow Kind = 5
	// KindMissionEnd closes a mission with its summary; it doubles as
	// the in-file index entry (it stores the MissionStart offset).
	KindMissionEnd Kind = 6
)

func (k Kind) String() string {
	switch k {
	case KindMissionStart:
		return "mission_start"
	case KindTick:
		return "tick"
	case KindDecision:
		return "decision"
	case KindFault:
		return "fault"
	case KindSpanRow:
		return "span"
	case KindMissionEnd:
		return "mission_end"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// encodeHeader renders the 16-byte file header.
func encodeHeader() []byte {
	h := make([]byte, headerSize)
	copy(h, magic)
	binary.LittleEndian.PutUint32(h[8:], FormatVersion)
	return h
}

// checkHeader validates a file header and returns its format version.
func checkHeader(h []byte) (uint32, error) {
	if len(h) < headerSize || string(h[:8]) != magic {
		return 0, fmt.Errorf("store: not a mission store (bad magic)")
	}
	v := binary.LittleEndian.Uint32(h[8:])
	if v == 0 || v > FormatVersion {
		return 0, fmt.Errorf("store: unsupported format version %d (this build reads <= %d)", v, FormatVersion)
	}
	return v, nil
}

// appendFrame frames one payload (length + CRC) onto dst and returns it.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// appendPayload renders kind | uvarint mission | body onto dst.
func appendPayload(dst []byte, kind Kind, mission uint64, body []byte) []byte {
	dst = append(dst, byte(kind))
	dst = binary.AppendUvarint(dst, mission)
	return append(dst, body...)
}

// splitPayload undoes appendPayload.
func splitPayload(p []byte) (kind Kind, mission uint64, body []byte, err error) {
	if len(p) == 0 {
		return 0, 0, nil, fmt.Errorf("store: empty payload")
	}
	kind = Kind(p[0])
	mission, n := binary.Uvarint(p[1:])
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("store: bad mission index varint")
	}
	return kind, mission, p[1+n:], nil
}
