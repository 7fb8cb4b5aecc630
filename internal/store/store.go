package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Store is one open mission store file: an append-only record log plus
// the in-memory mission index rebuilt from it on open. Safe for
// concurrent use — appends serialize on a mutex, reads use ReadAt below
// the committed length, so queries can run while missions record.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	path string
	size int64 // committed file length (everything below is valid)

	missions []*missionEntry
	byID     map[string]*missionEntry

	records   int64
	truncated int64 // bytes dropped by crash recovery on open

	// The VDP column: the mission index and VDP of every tick record, in
	// file order, as two parallel append-only slices. FleetStats pools
	// from it without touching the file. Live ticks join it in
	// appendBatch, in the critical section that advances size, so
	// interleaved recorders keep file order. The ticks recovered on open
	// (below unloaded) are decoded by the first FleetStats and prepended;
	// they precede every live tick in the file.
	colMission []uint32
	colVDP     []float64
	// colErrs holds each mission's first recovered tick body that failed
	// to decode, in file order: what a scan wanting the mission returns.
	colErrs []tickErr
	// unloaded is the end of the recovered prefix whose ticks are not
	// yet in the column, or 0 once they are (or there were none).
	unloaded int64
	// loadMu serializes loading the recovered prefix; it is taken
	// before mu, never while holding it.
	loadMu sync.Mutex

	encBuf []byte // reused append scratch, guarded by mu
}

// tickErr is a mission's tick record that failed to decode.
type tickErr struct {
	mission uint64
	err     error
}

// missionEntry is the in-memory index row for one mission.
type missionEntry struct {
	index    uint64 // 1-based store-order index used in record payloads
	start    MissionStart
	startOff int64
	end      *MissionEnd // nil while the mission is unfinished
	endOff   int64       // offset just past the MissionEnd record
}

// Open opens (creating if needed) a mission store. A torn or corrupt
// tail — the crash case for an append-only log — is truncated and
// counted in Stats().TruncatedBytes; everything before it is served.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st := &Store{f: f, path: path, byID: make(map[string]*missionEntry)}
	if err := st.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return st, nil
}

// recover scans the file, rebuilds the mission index, and truncates
// anything after the last structurally-valid record.
func (s *Store) recover() error {
	info, err := s.f.Stat()
	if err != nil {
		return err
	}
	flen := info.Size()

	if flen < headerSize {
		// Empty or torn-header file: start fresh. A store that never
		// finished writing its 16-byte header held no records.
		s.truncated = flen
		if err := s.f.Truncate(0); err != nil {
			return err
		}
		if _, err := s.f.WriteAt(encodeHeader(), 0); err != nil {
			return err
		}
		s.size = headerSize
		return s.f.Sync()
	}

	hdr := make([]byte, headerSize)
	if _, err := s.f.ReadAt(hdr, 0); err != nil {
		return err
	}
	if _, err := checkHeader(hdr); err != nil {
		return err
	}

	off, err := scanRecords(s.f, headerSize, flen, func(off int64, payload []byte) error {
		if err := s.indexRecord(off, payload); err != nil {
			// Structurally valid frame, unparseable payload.
			return &corruptError{err.Error()}
		}
		s.records++
		return nil
	})
	var corrupt *corruptError
	if err != nil && !errors.As(err, &corrupt) {
		return err
	}
	if off < flen {
		s.truncated = flen - off
		if err := s.f.Truncate(off); err != nil {
			return err
		}
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	s.size = off
	if off > headerSize {
		s.unloaded = off
	}
	return nil
}

// scanBufSize caps the sequential reader's buffer. A range smaller than
// the cap gets a buffer of its own size, so reading one small mission
// does not allocate the full cap.
const scanBufSize = 64 << 10

// corruptError reports a torn or corrupt record: where recovery
// truncates, and what a query over a damaged range returns.
type corruptError struct{ msg string }

func (e *corruptError) Error() string { return e.msg }

// scanRecords walks the records in [from, to) of f through one buffered
// sequential reader: it reads each frame and payload, checks the CRC,
// then calls fn with the record's offset and payload (valid only during
// the call). It returns the offset just past the last record fn
// accepted. A torn or corrupt record stops the walk with a
// *corruptError; an error from fn or from reading f stops it with that
// error.
func scanRecords(f io.ReaderAt, from, to int64, fn func(off int64, payload []byte) error) (int64, error) {
	if from >= to {
		return from, nil
	}
	br := bufio.NewReaderSize(io.NewSectionReader(f, from, to-from), int(min(to-from, scanBufSize)))
	var frame [frameSize]byte
	var payload []byte
	off := from
	for off < to {
		if to-off < frameSize {
			return off, &corruptError{fmt.Sprintf("store: torn frame at offset %d", off)}
		}
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			return off, err
		}
		plen := int64(binary.LittleEndian.Uint32(frame[0:]))
		want := binary.LittleEndian.Uint32(frame[4:])
		if plen == 0 || plen > maxRecordSize || off+frameSize+plen > to {
			return off, &corruptError{fmt.Sprintf("store: corrupt record length at offset %d", off)}
		}
		if int64(cap(payload)) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, err
		}
		if crc32.ChecksumIEEE(payload) != want {
			return off, &corruptError{fmt.Sprintf("store: checksum mismatch at offset %d", off)}
		}
		if err := fn(off, payload); err != nil {
			return off, err
		}
		off += frameSize + plen
	}
	return off, nil
}

// indexRecord folds one valid record into the mission index during
// recovery. Only start/end records decode JSON; bulk records just
// bump their mission's counters.
func (s *Store) indexRecord(off int64, payload []byte) error {
	kind, mission, body, err := splitPayload(payload)
	if err != nil {
		return err
	}
	switch kind {
	case KindMissionStart:
		var ms MissionStart
		if err := json.Unmarshal(body, &ms); err != nil {
			return err
		}
		if mission != uint64(len(s.missions)+1) {
			return fmt.Errorf("store: mission start %q has index %d, want %d", ms.ID, mission, len(s.missions)+1)
		}
		e := &missionEntry{index: mission, start: ms, startOff: off}
		s.missions = append(s.missions, e)
		s.byID[ms.ID] = e
	case KindMissionEnd:
		var me MissionEnd
		if err := json.Unmarshal(body, &me); err != nil {
			return err
		}
		e := s.entryByIndex(mission)
		if e == nil {
			return fmt.Errorf("store: mission end for unknown mission index %d", mission)
		}
		e.end = &me
		e.endOff = off + frameSize + int64(len(payload))
	default:
		if s.entryByIndex(mission) == nil {
			return fmt.Errorf("store: %s record for unknown mission index %d", kind, mission)
		}
	}
	return nil
}

func (s *Store) entryByIndex(idx uint64) *missionEntry {
	if idx == 0 || idx > uint64(len(s.missions)) {
		return nil
	}
	return s.missions[idx-1]
}

// append frames and writes one record, returning its start offset.
func (s *Store) append(kind Kind, mission uint64, v any) (int64, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(kind, mission, body)
}

func (s *Store) appendLocked(kind Kind, mission uint64, body []byte) (int64, error) {
	if s.f == nil {
		return 0, fmt.Errorf("store: closed")
	}
	s.encBuf = s.encBuf[:0]
	payload := appendPayload(s.encBuf[:0], kind, mission, body)
	buf := appendFrame(payload[len(payload):], payload)
	off := s.size
	if _, err := s.f.WriteAt(buf, off); err != nil {
		return 0, err
	}
	s.encBuf = payload[:0]
	s.size = off + int64(len(buf))
	s.records++
	return off, nil
}

// appendBatch writes pre-framed bytes (built with appendFrame) of one
// mission in one syscall and returns the batch's start offset. vdps are
// the VDPs of the batch's tick records in order; they join the VDP
// column once the write succeeds.
func (s *Store) appendBatch(framed []byte, records int64, mission uint64, vdps []float64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, fmt.Errorf("store: closed")
	}
	off := s.size
	if _, err := s.f.WriteAt(framed, off); err != nil {
		return 0, err
	}
	s.size = off + int64(len(framed))
	s.records += records
	for _, v := range vdps {
		s.colMission = append(s.colMission, uint32(mission))
		s.colVDP = append(s.colVDP, v)
	}
	return off, nil
}

// Begin opens a new mission and returns its asynchronous Recorder. An
// empty start.ID gets a store-assigned "m<N>" ID; a duplicate ID is an
// error. The MissionStart record is written synchronously so even a
// crashed mission is listed.
func (s *Store) Begin(start MissionStart) (*Recorder, error) {
	s.mu.Lock()
	if s.f == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("store: closed")
	}
	if start.ID == "" {
		start.ID = fmt.Sprintf("m%d", len(s.missions)+1)
	}
	if _, dup := s.byID[start.ID]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("store: mission ID %q already exists", start.ID)
	}
	idx := uint64(len(s.missions) + 1)
	body, err := json.Marshal(start)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	off, err := s.appendLocked(KindMissionStart, idx, body)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	e := &missionEntry{index: idx, start: start, startOff: off}
	s.missions = append(s.missions, e)
	s.byID[start.ID] = e
	s.mu.Unlock()
	return newRecorder(s, e), nil
}

// finishMission writes the MissionEnd record and completes the index
// entry. Called by Recorder.Finish after the queue has drained.
func (s *Store) finishMission(e *missionEntry, end MissionEnd) error {
	end.ID = e.start.ID
	end.StartOff = e.startOff
	body, err := json.Marshal(end)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.appendLocked(KindMissionEnd, e.index, body); err != nil {
		return err
	}
	e.end = &end
	e.endOff = s.size
	return s.f.Sync()
}

// Sync flushes the file to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	return s.f.Sync()
}

// Close syncs and closes the file. Finish every live Recorder first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// Path returns the backing file path.
func (s *Store) Path() string { return s.path }

// Stats describes the store file itself.
type Stats struct {
	Path           string `json:"path"`
	Bytes          int64  `json:"bytes"`
	Records        int64  `json:"records"`
	Missions       int    `json:"missions"`
	Finished       int    `json:"finished"`
	TruncatedBytes int64  `json:"truncated_bytes,omitempty"`
}

// Stats returns file-level statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Path: s.path, Bytes: s.size, Records: s.records,
		Missions: len(s.missions), TruncatedBytes: s.truncated}
	for _, e := range s.missions {
		if e.end != nil {
			st.Finished++
		}
	}
	return st
}
