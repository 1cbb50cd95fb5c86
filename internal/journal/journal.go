// Package journal is the fleet's crash-safe operation log. Aging state
// is history: a die's threshold shift is the integral of every stress
// and rejuvenation phase it ever saw, and none of it is recoverable if
// the process dies. Every simulation in this repository is
// deterministic given its parameters, so the log persists the
// *operations* (create, stress, rejuvenate, delete, and the sensor
// reads, which perturb the die) and replay re-runs them on startup.
//
// Re-running a chip's whole history makes recovery grow with uptime,
// so both subsystems checkpoint, and the journal keeps its live history
// by one rule, applied in commit order. Every record has a supersede
// key: a fleet chip's id for the chip's fleet records, and the engine
// for every engine record. Each key has a mark, and a record whose seq
// is below its key's mark is superseded: Records, compaction, a
// replica's resync and a promotion never see it again. A mark only
// moves forward, at three records:
//
//   - a fleet checkpoint, a stress or rejuvenate record carrying the
//     chip's full state after the phase (Record.State, the chip-state
//     codec of the root package), moves the chip's mark to itself;
//   - a fleet delete moves the chip's mark past itself, so the delete
//     supersedes itself too and a chip created again under the id
//     starts a new history;
//   - the final chunk of an engine checkpoint moves the engine's mark
//     to the group's first chunk. A group is a run of ID-less
//     OpEngineCheckpoint records, committed in one batch, whose chunks
//     (Record.State) join into the engine's encoded state. A group
//     whose final chunk never became durable (a crash mid-write, or a
//     replica's stream cut between frames) is dropped at open.
//
// So engine records, an engine removal or a fleet twin's registration
// included, fall only to an engine checkpoint, and a fleet delete never
// reaches them. A fleet chip's superseded records stay in memory until
// the next compaction or Records call; the engine's leave at once, and
// a compaction is requested so the log holds at most one superseded
// group.
//
// The on-disk layout is two files in the data directory:
//
//	snapshot.json  compacted records, rewritten atomically (tmp+rename)
//	journal.log    one record per line, appended and fsync'd per commit
//
// Each line is the record's JSON followed by a tab and a CRC32
// checksum of the JSON bytes (a raw tab can never appear inside a
// single-line JSON encoding, so the suffix is unambiguous). Lines
// written by older versions carry no checksum and are still accepted.
// The checksum turns silent bit rot into a detected corruption: by
// default a damaged mid-log record refuses startup, and with
// Options.Repair the file is backed up, truncated at the first bad
// record, and the dropped sequence numbers are reported.
//
// Appends are group-committed: each record is written under the lock,
// but concurrent appends share a single fsync — the first appender to
// reach the sync gate flushes every record staged so far, so tail
// latency under load is one fsync per batch instead of one per op.
// AppendBatch stages several records in order under one hold of the
// lock, so they land contiguously and commit together. An append
// returns only after its record is provably durable, so an
// acknowledged operation survives a hard stop. A truncated final
// record (torn write at crash) is tolerated on open: replay stops at
// the last complete record and the tail is trimmed. Records carry
// sequence numbers: Open reads the snapshot and the log as one history
// in sequence order, taking a repeated seq once, so a crash between
// writing a snapshot and truncating the log neither double-applies an
// operation nor lets a stale record outrank a newer one.
//
// Compaction drops the superseded records and folds the log into the
// snapshot. It runs on open and — off the append hot
// path — in a supervised background goroutine after every
// CompactEvery durable appends. The data directory itself is fsync'd
// after the snapshot rename and on log creation, so the rename
// survives power loss.
package journal

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"selfheal/internal/obs"
)

// Op enumerates the journaled operations.
type Op string

// The journaled fleet operations. Measure and odometer reads are
// journaled too: reading a sensor ages the die (sampling overhead) and
// consumes noise draws, so a replay that skipped reads would land on a
// different state than the fleet had at the crash.
const (
	OpCreate     Op = "create"
	OpStress     Op = "stress"
	OpRejuvenate Op = "rejuvenate"
	OpDelete     Op = "delete"
	OpMeasure    Op = "measure"
	OpOdometer   Op = "odometer"
)

// The journaled guard operations (see internal/guard). Quarantine is
// part of a chip's durable lifecycle — a quarantined chip must refuse
// mutations across a crash until the guard releases it — so the
// transitions are journaled like any other fleet op. They are not reads
// (pruneTrailingReads must keep them) and they are ordinary fleet
// records of the chip: its checkpoint or delete supersedes them.
const (
	OpQuarantine Op = "quarantine"
	OpRelease    Op = "release"
)

// The journaled engine operations (see internal/engine). The engine's
// aging state is deterministic given its operation history, so it
// persists operations — chip registrations and their later
// condition/schedule changes, and one coalesced epoch record per flush
// window that advances simulation time on replay — plus, every few
// hundred epochs, a checkpoint of its whole state that supersedes the
// operations before it.
//
// OpEngineEpoch and OpEngineCheckpoint are the global (ID-less) record
// kinds in the log: they apply to the whole engine. Every engine
// record, chip-level or global, has the engine as its supersede key.
// The engine coalesces epochs *before* committing (one record carries
// an Epochs count); the journal must never merge adjacent epoch
// records itself — a merged record would keep only one of the original
// sequence numbers, and Open, which takes a repeated seq once, would
// then re-absorb the others from a stale log after a crash,
// double-aging the fleet.
const (
	OpEngineReg        Op = "engine_reg"        // chip joins the engine
	OpEngineRemove     Op = "engine_remove"     // engine-native chip leaves
	OpEngineSet        Op = "engine_set"        // condition change (phase/temp/vdd/duty)
	OpEngineSchedule   Op = "engine_schedule"   // circadian schedule change
	OpEngineEpoch      Op = "engine_epoch"      // global: Epochs ticks of Hours each
	OpEngineCheckpoint Op = "engine_checkpoint" // global: one chunk of the engine's state
)

// IsEngineOp reports whether op belongs to the engine subsystem. The
// fleet replay skips these and the engine replay consumes them. Fleet
// create and delete records are not engine membership: a fleet chip's
// engine twin is registered by an OpEngineReg of its own.
func IsEngineOp(op Op) bool {
	switch op {
	case OpEngineReg, OpEngineRemove, OpEngineSet, OpEngineSchedule, OpEngineEpoch, OpEngineCheckpoint:
		return true
	}
	return false
}

// Record is one journaled operation. Create records carry Seed and
// Kind; stress/rejuvenate records carry the full phase parameters —
// including SampleHours, because sampling wakes the sensor and both
// ages the die and consumes noise draws, so replay must re-run the
// phase with identical settings to land on the identical state.
type Record struct {
	Seq         uint64  `json:"seq"`
	Op          Op      `json:"op"`
	ID          string  `json:"id"`
	Seed        uint64  `json:"seed,omitempty"`
	Kind        string  `json:"kind,omitempty"`
	TempC       float64 `json:"temp_c,omitempty"`
	Vdd         float64 `json:"vdd,omitempty"`
	AC          bool    `json:"ac,omitempty"`
	Hours       float64 `json:"hours,omitempty"`
	SampleHours float64 `json:"sample_hours,omitempty"`

	// Engine fields (see the OpEngine* ops). Reg/set records reuse
	// TempC and Vdd for the active condition and add Duty and Phase;
	// epoch records carry Epochs (tick count) with Hours as the
	// per-epoch simulated duration; schedule records carry the
	// circadian stress/sleep epoch counts and the sleep condition.
	Duty         float64 `json:"duty,omitempty"`
	Phase        string  `json:"phase,omitempty"`
	Epochs       uint64  `json:"epochs,omitempty"`
	StressEpochs uint64  `json:"stress_epochs,omitempty"`
	SleepEpochs  uint64  `json:"sleep_epochs,omitempty"`
	SleepTempC   float64 `json:"sleep_temp_c,omitempty"`
	SleepVdd     float64 `json:"sleep_vdd,omitempty"`

	// State, on a stress or rejuvenate record, is a checkpoint: the
	// chip's full state after the phase, in the fleet's checkpoint
	// encoding, with Seed and Kind naming the die to fabricate under
	// it. It supersedes every earlier fleet record of the chip. On an
	// OpEngineCheckpoint record it is one chunk of the engine's
	// encoded state, and Final marks the group's last chunk.
	State []byte `json:"state,omitempty"`
	Final bool   `json:"final,omitempty"`

	// Trace is the id of the distributed trace that caused this record
	// (set by Append from the request context). Purely observability:
	// replay ignores it, but the replication stream and a follower's
	// journal both preserve it, so a mutation can be traced from client
	// through forward, owner and replica. Old logs without the field
	// decode with Trace == "".
	Trace string `json:"trace,omitempty"`
}

// Checkpoint reports whether rec carries a chip checkpoint.
func (rec *Record) Checkpoint() bool { return rec.ID != "" && len(rec.State) > 0 }

// Hook intercepts the encoded bytes of a record on their way to the
// log file — the fault-injection seam (op is the Record.Op as a plain
// string so injectors need not import this package). The bytes are the
// full on-disk line: JSON payload, tab, CRC32 suffix, newline; they
// are valid only during the call. It may delay, return an error
// (nothing gets written), return a short prefix alongside an error (a
// torn write: the prefix hits the disk, then the append fails and the
// journal repairs itself by truncating back), or return silently
// corrupted bytes with no error — which the checksum catches on the
// next open.
type Hook func(op string, encoded []byte) ([]byte, error)

// Options tunes a journal; the zero value is production defaults.
type Options struct {
	// CompactEvery folds the log into the snapshot after this many
	// appends (default 4096), and after every engine checkpoint;
	// negative disables both background runs.
	CompactEvery int
	// Hook, when set, intercepts every record write (fault injection).
	Hook Hook
	// SyncHook, when set, runs before every fsync of the log file and
	// may return an error to simulate fsync failure (ENOSPC/EIO).
	SyncHook func() error
	// Repair enables salvage on open: a file with a corrupt mid-log
	// record is backed up, truncated at the first bad record, and the
	// dropped records are reported via Repairs. Without it, corruption
	// refuses to open (a torn *final* log record is always tolerated —
	// that is the signature of a crash mid-append, not of bit rot).
	Repair bool
}

// Stats is a snapshot of the journal's counters, exported under the
// service's /metrics.
type Stats struct {
	Appends      uint64        // records durably appended since open
	Compactions  uint64        // snapshot rewrites since open
	Records      int           // live records (replay length)
	LastSeq      uint64        // sequence number of the newest durable record
	FsyncCount   uint64        // fsyncs issued
	FsyncTotal   time.Duration // summed fsync latency
	FsyncMax     time.Duration // slowest single fsync
	SyncBatches  uint64        // group commits (appends sharing one fsync)
	BatchMax     int           // largest number of appends in one group commit
	CompactError string        // last background-compaction failure, "" when healthy
}

// RepairReport describes one salvage performed by Open with
// Options.Repair: which file was damaged, where it was backed up,
// where it was truncated, and exactly which records were dropped.
type RepairReport struct {
	File           string   // the damaged file
	Backup         string   // full pre-truncation copy
	TruncatedAt    int64    // byte offset the file was cut at
	Line           int      // 1-based line number of the first bad record
	Reason         string   // why that record failed to decode
	DroppedRecords int      // lines dropped (the bad one and everything after)
	DroppedSeqs    []uint64 // seqs of still-parseable records past the corruption
}

// mark is one supersede key's state: the key's records with a seq
// below seq are superseded, and live counts the key's records in recs
// that are not.
type mark struct {
	seq  uint64
	live int
}

// engineKey is the supersede key of every engine record. A fleet
// record's key is its chip's id, which is never empty.
const engineKey = ""

// supersedeKey returns rec's supersede key (see the package doc).
func supersedeKey(rec *Record) string {
	if IsEngineOp(rec.Op) {
		return engineKey
	}
	return rec.ID
}

// pendingAppend is one staged record awaiting its group fsync.
type pendingAppend struct {
	rec  Record
	done chan error // buffered; receives the group commit's verdict
}

// Journal is the append-only operation log. All methods are safe for
// concurrent use; record writes serialize internally (which also fixes
// the on-disk order — callers append while holding the per-chip lock,
// so the disk order always matches the application order per chip),
// while the fsync is shared across concurrent appends.
type Journal struct {
	dir  string
	opts Options

	mu         sync.Mutex
	f          *os.File
	size       int64 // bytes of complete records written to journal.log
	synced     int64 // prefix of size proven durable by fsync
	failed     error // set when a write could not be repaired; appends refuse
	pending    []*pendingAppend
	committing bool // a drained batch's fsync is in flight

	recs       []Record // durable history, snapshot source; see stale
	lastSeq    uint64   // newest assigned sequence number (staged included)
	durableSeq uint64   // newest fsync'd sequence number

	// marks holds each supersede key's mark, so a record supersedes
	// its key's earlier records in O(1). recs keeps superseded records,
	// stale of them, until dropSuperseded.
	marks map[string]mark
	stale int

	// engOpen is the first chunk's seq of an engine checkpoint group
	// still waiting for its final chunk (0: none), and engBefore the
	// engine's live record count before that chunk: the records the
	// group supersedes. compactDue asks the supervisor to fold the log
	// after an engine checkpoint.
	engOpen    uint64
	engBefore  int
	compactDue bool

	// onCommit, when set, observes every durably committed batch in
	// commit order (the replication primary's streaming seam).
	onCommit func(batch []Record)

	lines lineEncoder // encodes every line written, under mu

	sinceCompact int
	appends      uint64
	compactions  uint64
	fsyncCount   uint64
	fsyncTotal   time.Duration
	fsyncMax     time.Duration
	syncBatches  uint64
	batchMax     int
	compactErr   error

	repairs []RepairReport

	// groupMu is the commit gate: the appender holding it fsyncs every
	// record staged so far and resolves their done channels.
	groupMu sync.Mutex

	compactc  chan struct{}
	closedc   chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

const (
	snapshotName = "snapshot.json"
	logName      = "journal.log"
	// maxLine bounds one record line; anything longer is corruption.
	maxLine = 1 << 20
)

// Open creates dir if needed, loads the snapshot and the log (trimming
// a torn final record; salvaging deeper corruption when opts.Repair is
// set), compacts the pair, fsyncs the directory, and starts the
// background compaction supervisor. Call Records for the replay list.
func Open(dir string, opts Options) (*Journal, error) {
	if opts.CompactEvery == 0 {
		opts.CompactEvery = 4096
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, opts: opts, marks: make(map[string]mark)}

	snap, err := j.readOrSalvage(filepath.Join(dir, snapshotName), false)
	if err != nil {
		return nil, err
	}
	logRecs, err := j.readOrSalvage(filepath.Join(dir, logName), true)
	if err != nil {
		return nil, err
	}
	// One history in commit order: a crash between a compaction's
	// snapshot rename and its log truncation leaves records in both
	// files, and the log's older ones may sit below the snapshot's.
	hist := append(snap, logRecs...)
	slices.SortStableFunc(hist, func(a, b Record) int { return cmp.Compare(a.Seq, b.Seq) })
	for i := range hist {
		if i == 0 || hist[i].Seq != hist[i-1].Seq {
			j.absorb(hist[i])
		}
	}
	j.dropOpenCheckpoint()

	j.pruneTrailingReads()
	j.durableSeq = j.lastSeq

	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	// Persist the log file's creation (and any salvage truncation)
	// before acknowledging anything written into it.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: sync dir: %w", err)
	}
	// Fold everything into the snapshot so the next open replays one
	// clean file, and so the torn tail (if any) is physically gone.
	if err := j.compactLocked(); err != nil {
		f.Close()
		return nil, err
	}
	j.compactc = make(chan struct{}, 1)
	j.closedc = make(chan struct{})
	j.wg.Add(1)
	go j.compactLoop()
	return j, nil
}

// Repairs returns the salvage reports from Open (empty unless
// Options.Repair was set and corruption was found).
func (j *Journal) Repairs() []RepairReport { return j.repairs }

// isRead reports whether op is a sensor read. Reads are journaled —
// sampling perturbs the die, so later mutations build on the post-read
// state — but a read nothing built on yet is prunable (see below).
func (op Op) isRead() bool { return op == OpMeasure || op == OpOdometer }

// pruneTrailingReads drops, per chip, the sensor reads with no later
// mutating record. Replaying them would shift the post-restart reading
// to the *next* noise draw; dropping them makes the first post-restart
// read reproduce the last pre-crash reading exactly. Open compacts
// right after, so the pruned view is what the next open replays —
// without that persistence a later mutation would journal on top of
// records the live state never included.
func (j *Journal) pruneTrailingReads() {
	j.dropSuperseded()
	lastMut := make(map[string]uint64)
	for _, r := range j.recs {
		if !r.Op.isRead() {
			lastMut[r.ID] = r.Seq
		}
	}
	kept := j.recs[:0]
	for _, r := range j.recs {
		if !r.Op.isRead() || r.Seq < lastMut[r.ID] {
			kept = append(kept, r)
			continue
		}
		m := j.marks[r.ID]
		m.live--
		j.marks[r.ID] = m
	}
	clear(j.recs[len(kept):])
	j.recs = kept
}

// absorb adds one durable record to the live history. Records arrive
// in commit order, so a record never falls below its key's mark when
// absorbed; it can only move its key's mark, by the rule in the package
// doc, superseding the key's earlier records. The engine's superseded
// records leave recs at once.
func (j *Journal) absorb(rec Record) {
	if rec.Seq > j.lastSeq {
		j.lastSeq = rec.Seq
	}
	key := supersedeKey(&rec)
	if rec.Op != OpEngineCheckpoint {
		// A group's chunks are contiguous, so any other record ends a
		// group that never got its final chunk.
		j.dropOpenCheckpoint()
	} else if j.engOpen == 0 {
		j.engOpen, j.engBefore = rec.Seq, j.marks[key].live
	}
	j.recs = append(j.recs, rec)
	m := j.marks[key]
	m.live++
	engineCkpt := rec.Op == OpEngineCheckpoint && rec.Final
	switch {
	case rec.Checkpoint():
		m = j.supersede(m, rec.Seq, m.live-1)
	case rec.Op == OpDelete:
		m = j.supersede(m, rec.Seq+1, m.live)
	case engineCkpt:
		m = j.supersede(m, j.engOpen, j.engBefore)
		j.engOpen = 0
	}
	j.marks[key] = m
	if engineCkpt {
		j.dropSuperseded()
		if cap(j.recs) > 4*len(j.recs)+1024 {
			// The superseded records were most of the history (an
			// engine's registrations): let go of the array they filled.
			j.recs = append(make([]Record, 0, 2*len(j.recs)), j.recs...)
		}
		j.compactDue = true
	}
}

// supersede moves m to seq, superseding the n of its key's live records
// that sit below seq.
func (j *Journal) supersede(m mark, seq uint64, n int) mark {
	j.stale += n
	return mark{seq: seq, live: m.live - n}
}

// dropOpenCheckpoint discards the chunks of an engine checkpoint group
// whose final chunk has not arrived, the tail of recs: a torn group
// never restores.
func (j *Journal) dropOpenCheckpoint() {
	if j.engOpen == 0 {
		return
	}
	n := len(j.recs)
	for n > 0 && j.recs[n-1].Seq >= j.engOpen {
		n--
	}
	m := j.marks[engineKey]
	m.live -= len(j.recs) - n
	j.marks[engineKey] = m
	clear(j.recs[n:])
	j.recs = j.recs[:n]
	j.engOpen = 0
}

// dropSuperseded removes the superseded records from recs, and the
// marks no live record needs. It costs one pass over the history, so
// it runs where one is paid anyway: compaction, Records and an engine
// checkpoint.
func (j *Journal) dropSuperseded() {
	if j.stale == 0 {
		return
	}
	kept := j.recs[:0]
	for i := range j.recs {
		if j.recs[i].Seq >= j.marks[supersedeKey(&j.recs[i])].seq {
			kept = append(kept, j.recs[i])
		}
	}
	clear(j.recs[len(kept):])
	j.recs = kept
	j.stale = 0
	for key, m := range j.marks {
		if m.live == 0 {
			delete(j.marks, key)
		}
	}
}

// lineEncoder renders on-disk lines — JSON payload, tab, CRC32 of the
// payload as 8 hex digits, newline — into one buffer it reuses, so a
// line is valid until the next encode. An engine checkpoint chunk's
// line is ~256 KiB, and a fresh buffer per line would double what a
// checkpoint commit or a compaction allocates.
type lineEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

func (le *lineEncoder) encode(rec *Record) ([]byte, error) {
	if le.enc == nil {
		le.enc = json.NewEncoder(&le.buf)
	}
	le.buf.Reset()
	if err := le.enc.Encode(rec); err != nil {
		return nil, fmt.Errorf("journal: encode record: %w", err)
	}
	le.buf.Truncate(le.buf.Len() - 1) // Encode's newline
	fmt.Fprintf(&le.buf, "\tc%08x\n", crc32.ChecksumIEEE(le.buf.Bytes()))
	return le.buf.Bytes(), nil
}

// parseLine decodes one journal line (without its newline). Lines
// written by this version carry a trailing "\tc<crc32 hex>" suffix,
// verified against the JSON payload; lines from older logs are bare
// JSON and are accepted without verification.
func parseLine(line []byte) (Record, error) {
	payload := line
	if i := bytes.LastIndexByte(line, '\t'); i >= 0 {
		sum := line[i+1:]
		payload = line[:i]
		if len(sum) != 9 || sum[0] != 'c' {
			return Record{}, fmt.Errorf("malformed checksum suffix %q", sum)
		}
		want, err := strconv.ParseUint(string(sum[1:]), 16, 32)
		if err != nil {
			return Record{}, fmt.Errorf("malformed checksum %q", sum)
		}
		if got := crc32.ChecksumIEEE(payload); got != uint32(want) {
			return Record{}, fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", uint32(want), got)
		}
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, fmt.Errorf("bad record: %w", err)
	}
	if rec.Op == "" {
		return Record{}, errors.New("record has no op")
	}
	return rec, nil
}

// corruption describes the first undecodable record found in a file.
type corruption struct {
	offset       int64 // byte offset of the bad line's start
	line         int   // 1-based line number of the bad line
	reason       error
	droppedLines int      // the bad line plus everything after it
	droppedSeqs  []uint64 // seqs of still-parseable records past the corruption
}

// readRecords parses one record per line, returning the records before
// the first undecodable line and — when one exists — a description of
// the corruption. With tolerateTail, a single bad *final* line is
// treated as a torn crash write and silently dropped. The error return
// is reserved for I/O failures.
func readRecords(path string, tolerateTail bool) ([]Record, *corruption, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()

	var (
		recs   []Record
		corr   *corruption
		offset int64
		lineNo int
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		start := offset
		offset += int64(len(line)) + 1
		if len(line) == 0 {
			continue
		}
		if corr != nil {
			// Past the corruption everything is dropped; keep parsing
			// best-effort so the salvage report can name the seqs.
			corr.droppedLines++
			if rec, perr := parseLine(line); perr == nil {
				corr.droppedSeqs = append(corr.droppedSeqs, rec.Seq)
			}
			continue
		}
		rec, perr := parseLine(line)
		if perr != nil {
			corr = &corruption{offset: start, line: lineNo, reason: perr, droppedLines: 1}
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		if !errors.Is(err, bufio.ErrTooLong) {
			return nil, nil, fmt.Errorf("journal: %s: %w", path, err)
		}
		// An oversized line is corruption; scanning cannot continue, so
		// the dropped-record details past this point are unknown.
		if corr == nil {
			corr = &corruption{
				offset: offset, line: lineNo + 1, droppedLines: 1,
				reason: fmt.Errorf("record exceeds %d bytes", maxLine),
			}
		}
		return recs, corr, nil
	}
	// A lone bad line at the very end of the log is the signature of a
	// torn append at crash time, not of bit rot: drop it silently.
	if corr != nil && corr.droppedLines == 1 && tolerateTail {
		corr = nil
	}
	return recs, corr, nil
}

// readOrSalvage loads one file. Corruption either refuses the open
// (default — the operator must opt in to dropping records) or, with
// Options.Repair, backs the file up, truncates it at the first bad
// record, and records a RepairReport.
func (j *Journal) readOrSalvage(path string, tolerateTail bool) ([]Record, error) {
	recs, corr, err := readRecords(path, tolerateTail)
	if err != nil {
		return nil, err
	}
	if corr == nil {
		return recs, nil
	}
	if !j.opts.Repair {
		return nil, fmt.Errorf(
			"journal: %s: line %d: %v; refusing to start (enable repair — selfheal-serve -repair — to back up the file, truncate at the corruption, and drop %d record(s))",
			path, corr.line, corr.reason, corr.droppedLines)
	}
	rep, err := salvage(path, corr)
	if err != nil {
		return nil, err
	}
	j.repairs = append(j.repairs, rep)
	return recs, nil
}

// salvage backs path up to the first free "<path>.corrupt.N", truncates
// the original at the corruption, and fsyncs both file and directory.
func salvage(path string, corr *corruption) (RepairReport, error) {
	backup, err := backupFile(path)
	if err != nil {
		return RepairReport{}, fmt.Errorf("journal: salvage %s: %w", path, err)
	}
	if err := os.Truncate(path, corr.offset); err != nil {
		return RepairReport{}, fmt.Errorf("journal: salvage %s: truncate: %w", path, err)
	}
	if err := syncFilePath(path); err != nil {
		return RepairReport{}, fmt.Errorf("journal: salvage %s: %w", path, err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return RepairReport{}, fmt.Errorf("journal: salvage %s: sync dir: %w", path, err)
	}
	return RepairReport{
		File:           path,
		Backup:         backup,
		TruncatedAt:    corr.offset,
		Line:           corr.line,
		Reason:         corr.reason.Error(),
		DroppedRecords: corr.droppedLines,
		DroppedSeqs:    corr.droppedSeqs,
	}, nil
}

// backupFile copies path to the first unused "<path>.corrupt.N" and
// fsyncs the copy, so the damaged original survives for forensics.
func backupFile(path string) (string, error) {
	src, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer src.Close()
	for n := 0; ; n++ {
		cand := fmt.Sprintf("%s.corrupt.%d", path, n)
		dst, err := os.OpenFile(cand, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return "", err
		}
		if _, err := io.Copy(dst, src); err != nil {
			dst.Close()
			return "", err
		}
		if err := dst.Sync(); err != nil {
			dst.Close()
			return "", err
		}
		return cand, dst.Close()
	}
}

// Records returns a copy of the durable live history in sequence
// order — the replay list that reconstructs the fleet: each chip's
// newest checkpoint and the records after it.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dropSuperseded()
	out := make([]Record, len(j.recs))
	copy(out, j.recs)
	return out
}

// Append assigns the next sequence number, writes the record to the
// log, and waits for a group commit to make it durable. It returns
// only after the record is fsync'd — or with an error after repairing
// any partial write, so the log never accumulates garbage between
// records. Concurrent appends share one fsync. A journal whose repair
// failed refuses further appends rather than corrupt the history.
//
// When ctx carries a trace, Append records a journal.stage span (the
// serialized line write) and a journal.commit span showing whether
// this appender led the group commit or rode another leader's fsync.
func (j *Journal) Append(ctx context.Context, rec Record) error {
	return j.AppendBatch(ctx, []Record{rec})
}

// AppendBatch appends recs as Append does one record: in input order,
// staged under one hold of the journal lock so no other append lands
// between them, and acknowledged by one group commit. It is all or
// nothing: a failed write unwinds every line the batch wrote, and the
// group commit resolves the batch as a whole.
func (j *Journal) AppendBatch(ctx context.Context, recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	_, sp := obs.StartSpan(ctx, "journal.stage",
		obs.String("op", string(recs[0].Op)), obs.String("chip_id", recs[0].ID), obs.Int("records", len(recs)))
	p, err := j.stage(recs, obs.TraceIDFrom(ctx), true)
	sp.SetError(err)
	sp.End()
	if err != nil || p == nil {
		return err
	}
	return j.awaitCommit(ctx, p)
}

// stage writes recs at the log's tail in order under one hold of mu
// and queues them for the next group commit, returning the last one
// (nil if none was staged). With assign set it numbers the records and
// tags those without a trace with trace; otherwise they carry their
// sequence numbers already, and those not past lastSeq are skipped as
// duplicates. A failed or torn write truncates back to the tail before
// the batch, so the batch stages whole or not at all and the next
// append starts on a clean boundary.
func (j *Journal) stage(recs []Record, trace string, assign bool) (*pendingAppend, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return nil, fmt.Errorf("journal: log is failed (%w); refusing append", j.failed)
	}
	start, startSeq := j.size, j.lastSeq
	staged := make([]*pendingAppend, 0, len(recs))
	for _, rec := range recs {
		switch {
		case assign:
			rec.Seq = j.lastSeq + 1
			if rec.Trace == "" {
				rec.Trace = trace
			}
		case rec.Seq == 0:
			return nil, j.unstage(start, startSeq, errors.New("journal: replica record without sequence number"))
		case rec.Seq <= j.lastSeq:
			continue
		}
		if err := j.writeLineLocked(rec); err != nil {
			return nil, j.unstage(start, startSeq, err)
		}
		j.lastSeq = rec.Seq
		staged = append(staged, &pendingAppend{rec: rec, done: make(chan error, 1)})
	}
	if len(staged) == 0 {
		return nil, nil
	}
	j.pending = append(j.pending, staged...)
	return staged[len(staged)-1], nil
}

// unstage truncates the log back to start, unwinding a batch's lines;
// records staged by other appenders sit before start and are
// untouched. Callers hold mu. It returns err.
func (j *Journal) unstage(start int64, startSeq uint64, err error) error {
	if terr := j.f.Truncate(start); terr != nil {
		j.failed = terr
	}
	j.size, j.lastSeq = start, startSeq
	return err
}

// writeLineLocked encodes rec (whose Seq is already set), runs the
// fault hook, and writes the line at the log's tail, advancing size. On
// a failed or torn write it truncates back to the pre-write tail so the
// log never holds a partial record between complete ones. Callers hold
// mu.
func (j *Journal) writeLineLocked(rec Record) error {
	line, err := j.lines.encode(&rec)
	if err != nil {
		return err
	}
	toWrite := line
	var hookErr error
	if j.opts.Hook != nil {
		toWrite, hookErr = j.opts.Hook(string(rec.Op), line)
	}
	if len(toWrite) > 0 {
		if _, werr := j.f.WriteAt(toWrite, j.size); werr != nil && hookErr == nil {
			hookErr = werr
		}
	}
	if hookErr != nil || len(toWrite) != len(line) {
		if terr := j.f.Truncate(j.size); terr != nil {
			j.failed = terr
			return fmt.Errorf("journal: append failed (%v) and repair failed: %w", hookErr, terr)
		}
		if hookErr == nil {
			hookErr = errors.New("journal: short write")
		}
		return fmt.Errorf("journal: append: %w", hookErr)
	}
	j.size += int64(len(line))
	return nil
}

// AppendReplica appends records that already carry sequence numbers —
// the replication follower's write path. The whole batch shares one
// group commit (one fsync), records whose seq is not past lastSeq are
// skipped (snapshot/tail overlap and retransmits are harmless), and the
// call returns only after the batch is durable. Unlike Append it never
// assigns sequence numbers: replicas must preserve the primary's
// numbering bit-for-bit so a promoted follower replays identically.
func (j *Journal) AppendReplica(ctx context.Context, recs []Record) error {
	p, err := j.stage(recs, "", false)
	if err != nil || p == nil {
		return err // p == nil: every record was a duplicate
	}
	// Waiting on the last record covers the whole batch: commitGroup
	// resolves a batch all-or-nothing.
	return j.awaitCommit(ctx, p)
}

// ResetTo atomically replaces the journal's entire live history with
// recs — the replication follower's snapshot-resync path. The records
// must already carry the primary's sequence numbers; lastSeq is the
// primary's durable sequence cursor, which can sit past the highest
// record (a delete supersedes its chip's history *and* itself), so the
// replica's numbering keeps tracking the primary's. The new history is
// compacted to disk before returning, so a crash right after ResetTo
// replays exactly recs. It refuses while appends are staged or a commit
// is in flight; the follower is normally the journal's only writer.
func (j *Journal) ResetTo(recs []Record, lastSeq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return fmt.Errorf("journal: log is failed (%w); refusing reset", j.failed)
	}
	if len(j.pending) > 0 || j.committing {
		return errors.New("journal: reset: appends in flight")
	}
	j.recs, j.marks, j.stale = nil, make(map[string]mark), 0
	j.engOpen = 0
	j.lastSeq = lastSeq
	for _, rec := range recs {
		j.absorb(rec)
	}
	j.dropOpenCheckpoint()
	j.durableSeq = j.lastSeq
	return j.compactLocked()
}

// SetOnCommit registers fn to observe every durably committed batch.
// Batches arrive in commit order (the group-commit gate serializes
// them), after the batch is durable and absorbed but before the
// appenders' Append calls return — so a replication primary can enqueue
// the batch to followers before acknowledging. fn must not call back
// into the journal and must not block (it runs on the commit path).
func (j *Journal) SetOnCommit(fn func(batch []Record)) {
	j.mu.Lock()
	j.onCommit = fn
	j.mu.Unlock()
}

// awaitCommit resolves one staged append: either an earlier appender's
// group commit already covered it, or this appender becomes the leader
// and commits every record staged so far. The journal.commit span makes
// the group-commit roles visible: leader=true spans carry the batch
// size and fsync duration; leader=false spans measure only the wait.
func (j *Journal) awaitCommit(ctx context.Context, p *pendingAppend) error {
	_, sp := obs.StartSpan(ctx, "journal.commit")
	defer sp.End()
	select {
	case err := <-p.done:
		sp.Annotate(obs.Bool("leader", false))
		sp.SetError(err)
		return err
	default:
	}
	j.groupMu.Lock()
	select {
	case err := <-p.done: // the previous leader's group covered us
		j.groupMu.Unlock()
		sp.Annotate(obs.Bool("leader", false))
		sp.SetError(err)
		return err
	default:
	}
	n, fsync := j.commitGroup()
	j.groupMu.Unlock()
	sp.Annotate(obs.Bool("leader", true), obs.Int("batch_size", n), obs.Duration("fsync", fsync))
	// commitGroup drained the pending set we are in, so done is resolved.
	err := <-p.done
	sp.SetError(err)
	return err
}

// commitGroup fsyncs every staged record in one shot. On success the
// batch becomes durable and is absorbed into the live history; on
// failure the log is truncated back to the durable prefix — failing,
// alongside the batch, any append staged while the fsync was in
// flight, since its bytes sit past the truncation point. It reports
// the batch size and fsync duration for the leader's trace span.
func (j *Journal) commitGroup() (int, time.Duration) {
	j.mu.Lock()
	batch := j.pending
	j.pending = nil
	end := j.size
	if len(batch) == 0 {
		j.mu.Unlock()
		return 0, 0
	}
	// Block compaction until the batch is absorbed: its bytes live only
	// in the log, and compaction truncates the log.
	j.committing = true
	j.mu.Unlock()

	// The fsync runs outside mu so concurrent appenders keep staging
	// into the next batch while the disk works.
	start := time.Now()
	serr := j.doSync()
	elapsed := time.Since(start)

	j.mu.Lock()
	j.committing = false
	onCommit := j.onCommit
	j.fsyncCount++
	j.fsyncTotal += elapsed
	if elapsed > j.fsyncMax {
		j.fsyncMax = elapsed
	}
	if serr == nil {
		if end > j.synced {
			j.synced = end
		}
		j.syncBatches++
		if len(batch) > j.batchMax {
			j.batchMax = len(batch)
		}
		for _, p := range batch {
			j.absorb(p.rec)
			if p.rec.Seq > j.durableSeq {
				j.durableSeq = p.rec.Seq
			}
			j.appends++
			j.sinceCompact++
		}
		if j.compactWanted() {
			select {
			case j.compactc <- struct{}{}:
			default:
			}
		}
	} else {
		serr = fmt.Errorf("journal: fsync: %w", serr)
		// The batch's bytes are written but not provably durable; trim
		// back so the on-disk and in-memory histories stay in
		// agreement. Records staged during the failed fsync sit past
		// the trim point, so they fail with the same verdict.
		if terr := j.f.Truncate(j.synced); terr != nil {
			j.failed = terr
		}
		j.size = j.synced
		j.lastSeq = j.durableSeq
		batch = append(batch, j.pending...)
		j.pending = nil
	}
	j.mu.Unlock()
	// The commit callback runs under the group-commit gate (the caller
	// holds groupMu), so a replication primary observes batches in
	// exactly the order they became durable — and before any appender in
	// the batch is acknowledged.
	if serr == nil && onCommit != nil {
		recs := make([]Record, len(batch))
		for i, p := range batch {
			recs[i] = p.rec
		}
		onCommit(recs)
	}
	for _, p := range batch {
		p.done <- serr
	}
	return len(batch), elapsed
}

// doSync runs the fault seam, then fsyncs the log file.
func (j *Journal) doSync() error {
	if j.opts.SyncHook != nil {
		if err := j.opts.SyncHook(); err != nil {
			return err
		}
	}
	return j.f.Sync()
}

// Probe checks whether the journal can write durably again — the
// recovery test the serve layer's degraded-mode supervisor polls. It
// re-attempts the truncate of a failed repair, then runs the fsync
// path (including the fault seam). A nil return means appends work.
func (j *Journal) Probe() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		if err := j.f.Truncate(j.synced); err != nil {
			return fmt.Errorf("journal: still failed: %w", err)
		}
		j.size = j.synced
		j.lastSeq = j.durableSeq
		j.failed = nil
	}
	start := time.Now()
	err := j.doSync()
	elapsed := time.Since(start)
	j.fsyncCount++
	j.fsyncTotal += elapsed
	if elapsed > j.fsyncMax {
		j.fsyncMax = elapsed
	}
	if err != nil {
		return fmt.Errorf("journal: probe fsync: %w", err)
	}
	return nil
}

// compactLoop is the background compaction supervisor: it owns every
// size-triggered snapshot rewrite, so a slow compaction never stalls
// an appender. Errors are retained (surfaced via Stats) and retried on
// the next trigger.
func (j *Journal) compactLoop() {
	defer j.wg.Done()
	for {
		select {
		case <-j.closedc:
			return
		case <-j.compactc:
		}
		j.mu.Lock()
		// Skip while appends are staged or a batch's fsync is in
		// flight: compaction truncates the log, and those records are
		// not in the snapshot yet. The next group commit re-triggers,
		// so nothing is lost.
		if j.failed == nil && len(j.pending) == 0 && !j.committing && j.compactWanted() {
			j.compactErr = j.compactLocked()
		}
		j.mu.Unlock()
	}
}

// compactWanted reports whether a background compaction is due: after
// CompactEvery appends, or after an engine checkpoint. Callers hold
// mu.
func (j *Journal) compactWanted() bool {
	return j.opts.CompactEvery > 0 && (j.sinceCompact >= j.opts.CompactEvery || j.compactDue)
}

// Compact folds the log into the snapshot immediately.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.pending) > 0 || j.committing {
		return errors.New("journal: compact: appends in flight")
	}
	return j.compactLocked()
}

// compactLocked drops superseded records, writes the live records to
// snapshot.json.tmp, fsyncs,
// renames over the snapshot, fsyncs the directory (so the rename
// itself survives power loss), then truncates the log. A crash at any
// point is safe: the rename is atomic and replay deduplicates by
// sequence number. Callers hold mu and have no staged-unsynced
// records.
func (j *Journal) compactLocked() error {
	j.dropSuperseded()
	tmpPath := filepath.Join(j.dir, snapshotName+".tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	w := bufio.NewWriter(tmp)
	for i := range j.recs {
		line, err := j.lines.encode(&j.recs[i])
		if err != nil {
			tmp.Close()
			return fmt.Errorf("journal: compact: %w", err)
		}
		if _, err := w.Write(line); err != nil {
			tmp.Close()
			return fmt.Errorf("journal: compact: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(j.dir, snapshotName)); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := syncDir(j.dir); err != nil {
		return fmt.Errorf("journal: compact: sync dir: %w", err)
	}
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: compact: truncate log: %w", err)
	}
	j.size = 0
	j.synced = 0
	j.sinceCompact = 0
	j.compactDue = false
	j.compactions++
	return nil
}

// syncDir fsyncs a directory, persisting renames and file creations
// inside it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncFilePath fsyncs the file at path.
func syncFilePath(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Stats{
		Appends:     j.appends,
		Compactions: j.compactions,
		Records:     len(j.recs) - j.stale,
		LastSeq:     j.durableSeq,
		FsyncCount:  j.fsyncCount,
		FsyncTotal:  j.fsyncTotal,
		FsyncMax:    j.fsyncMax,
		SyncBatches: j.syncBatches,
		BatchMax:    j.batchMax,
	}
	if j.compactErr != nil {
		st.CompactError = j.compactErr.Error()
	}
	return st
}

// Close stops the compaction supervisor and releases the log file. A
// hard stop without Close loses nothing: every acknowledged append was
// already fsync'd.
func (j *Journal) Close() error {
	j.closeOnce.Do(func() { close(j.closedc) })
	j.wg.Wait()
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
