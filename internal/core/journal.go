package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"wsstudy/internal/fault"
)

// The suite checkpoint journal is a CRC-framed append-only log of
// completed (experiment, options) cells. RunSuite appends each cell's
// report as it completes; a rerun opens the same journal and revives
// completed cells instead of recomputing them, so a suite killed
// mid-sweep — power loss, OOM kill, ^C — resumes where it stopped and
// still produces the same merged report a fault-free run would.
//
// Format: the magic line, then frames of
//
//	[4]byte little-endian payload length
//	[4]byte CRC-32C (Castagnoli) of the payload
//	payload: JSON journalCell
//
// A crash can only ever tear the final frame (appends are a single
// write), and OpenJournal truncates a torn or corrupt tail back to the
// last intact frame — recovery is built into opening the file.

// journalMagic identifies version 1 of the journal format.
const journalMagic = "wssjournal1\n"

// journalMaxFrame bounds a frame payload (a defense against reading a
// garbage length from a corrupt header, not a practical limit — cells
// are rendered reports, typically a few KB).
const journalMaxFrame = 64 << 20

// fpJournalAppend injects journal-append failures: a full disk while
// checkpointing. The suite treats an append failure as a lost
// checkpoint, not a lost cell — the run continues, only resumability
// suffers.
var fpJournalAppend = fault.New("core.journal.append")

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// journalCell is one completed cell's frame payload.
type journalCell struct {
	// ID and Canon identify the cell (experiment id + canonical
	// Options); Key is its hex content address under the current report
	// schema, so cells written by an incompatible schema are never
	// revived.
	ID     string    `json:"id"`
	Canon  string    `json:"canon"`
	Key    string    `json:"key"`
	Report *ReportV1 `json:"report"`
}

// Journal is a suite checkpoint log. Safe for concurrent use by the
// suite's workers. A nil *Journal is valid and records/revives nothing.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	cells map[string]*Report // content address (hex) → revived report
}

// OpenJournal opens (or creates) the checkpoint journal at path,
// replaying its intact frames and truncating any torn or corrupt tail
// left by a crash mid-append. The returned journal serves lookups from
// the replayed cells and appends new ones at the recovered end. An empty
// file, or one holding only the start of the magic (a torn first write),
// starts a fresh journal; any other file that does not begin with the
// magic is not a journal, so OpenJournal returns an error and leaves it
// untouched.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: opening journal: %w", err)
	}
	j := &Journal{f: f, path: path, cells: make(map[string]*Report)}

	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("core: reading journal: %w", err)
	}
	good := int64(0)
	if len(data) > 0 {
		if !bytes.HasPrefix(data, []byte(journalMagic)) {
			if !bytes.HasPrefix([]byte(journalMagic), data) {
				f.Close()
				return nil, fmt.Errorf("core: %s is not a suite journal (it does not start with %q)", path, journalMagic)
			}
			// A torn first write: start over.
		} else {
			good = int64(len(journalMagic))
			for _, frame := range decodeJournalFrames(data[good:]) {
				var c journalCell
				if json.Unmarshal(frame, &c) == nil && c.Report != nil &&
					c.Report.SchemaVersion == ReportSchemaVersion {
					j.cells[c.Key] = c.Report.Report()
				}
				good += int64(8 + len(frame))
			}
		}
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("core: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("core: seeking journal end: %w", err)
	}
	if good == 0 {
		if _, err := f.WriteString(journalMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("core: writing journal magic: %w", err)
		}
	}
	return j, nil
}

// decodeJournalFrames walks the frames in data, returning each intact
// payload in order and stopping at the first torn or corrupt frame —
// everything from there on is the tail the opener truncates.
func decodeJournalFrames(data []byte) [][]byte {
	var frames [][]byte
	for len(data) >= 8 {
		n := binary.LittleEndian.Uint32(data)
		sum := binary.LittleEndian.Uint32(data[4:])
		if n == 0 || n > journalMaxFrame || int(n) > len(data)-8 {
			break
		}
		payload := data[8 : 8+n]
		if crc32.Checksum(payload, journalCRC) != sum {
			break
		}
		frames = append(frames, payload)
		data = data[8+n:]
	}
	return frames
}

// Len reports how many distinct cells the journal holds.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.cells)
}

// Path reports the journal's file path.
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Lookup revives the completed cell for (id, opt), or reports that the
// suite must compute it. Cells are matched by content address, so a
// journal written at a different scale — or under a different report
// schema — never aliases.
func (j *Journal) Lookup(id string, opt Options) (*Report, bool) {
	if j == nil {
		return nil, false
	}
	addr := ResultKey(id, opt)
	j.mu.Lock()
	defer j.mu.Unlock()
	rep, ok := j.cells[hex.EncodeToString(addr[:])]
	return rep, ok
}

// Record checkpoints a completed cell: one frame appended with a single
// write and synced, so a crash can tear at most the frame being
// written. Re-recording an already journaled cell is a no-op.
func (j *Journal) Record(id string, opt Options, rep *Report) error {
	if j == nil || rep == nil {
		return nil
	}
	addr := ResultKey(id, opt)
	key := hex.EncodeToString(addr[:])

	// Strip run metrics from the checkpoint: they describe the process
	// that computed the cell, not the cell, and a resumed run folds its
	// own metrics.
	stripped := *rep
	stripped.Metrics = nil
	v1 := stripped.V1()
	payload, err := json.Marshal(journalCell{
		ID: id, Canon: opt.Canonical(), Key: key, Report: v1,
	})
	if err != nil {
		return fmt.Errorf("core: encoding journal cell: %w", err)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, journalCRC))
	copy(frame[8:], payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.cells[key]; ok {
		return nil
	}
	if err := fpJournalAppend.Inject(nil); err != nil {
		return err
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("core: appending journal cell: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("core: syncing journal: %w", err)
	}
	j.cells[key] = v1.Report()
	return nil
}

// Close releases the journal file. The journal must not be used after.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
