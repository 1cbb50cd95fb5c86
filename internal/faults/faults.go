// Package faults is a seeded, deterministic fault injector for chaos
// testing the fleet service. It makes two kinds of decisions: per-HTTP-
// request (added latency, an injected 500, a panic) and per-journal-
// write (latency, a failed write, a torn partial write). The decisions
// come from one seeded PRNG, so a chaos run is reproducible: the same
// seed and the same sequence of draws yield the same faults.
//
// The injector only decides; the caller applies. The serve package
// turns Request decisions into slept latency, JSON 500s and recovered
// panics, and the journal applies Write decisions via its write hook.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks a deliberately injected failure, so handlers and
// the journal can classify it (and tests can assert on it).
var ErrInjected = errors.New("faults: injected error")

// DiskMode selects a deterministic storage fault. Unlike the seeded
// probabilistic faults, disk modes fire on *every* matching operation
// until cleared (or until a recover-after-N budget runs out), which is
// what acceptance tests for degraded mode need: the transition must
// happen on a known operation, not eventually.
type DiskMode string

const (
	// DiskNone injects no disk faults.
	DiskNone DiskMode = ""
	// DiskFailAppend fails every journal record write cleanly (nothing
	// reaches the disk), like a full disk returning ENOSPC.
	DiskFailAppend DiskMode = "fail-append"
	// DiskFailFsync lets record writes through but fails the fsync —
	// the write-back failure shape of a dying device (EIO).
	DiskFailFsync DiskMode = "fail-fsync"
	// DiskCorrupt flips a byte mid-record and reports success: silent
	// bit rot, detected only by the journal's checksums on the next
	// open.
	DiskCorrupt DiskMode = "corrupt-on-write"
)

func parseDiskMode(s string) (DiskMode, error) {
	switch m := DiskMode(s); m {
	case DiskNone, DiskFailAppend, DiskFailFsync, DiskCorrupt:
		return m, nil
	default:
		return DiskNone, fmt.Errorf("faults: unknown disk mode %q (want fail-append, fail-fsync or corrupt-on-write)", s)
	}
}

// NetMode selects a deterministic fault on the replication link. Like
// disk modes these fire on every matching send until cleared or until
// a recover-after-N budget runs out — chaos tests for follower lag,
// partition, and reconnect need the transition on a known frame, not
// eventually.
type NetMode string

const (
	// NetNone injects no network faults.
	NetNone NetMode = ""
	// NetDrop silently discards outbound tail frames: the follower sees
	// a sequence gap and resyncs.
	NetDrop NetMode = "drop"
	// NetDelay delays every outbound tail frame by the configured
	// latency: follower lag without loss.
	NetDelay NetMode = "delay"
	// NetPartition fails outbound sends outright, cutting the
	// connection: the follower reconnects (and the primary degrades in
	// semisync until it does).
	NetPartition NetMode = "partition"
)

func parseNetMode(s string) (NetMode, error) {
	switch m := NetMode(s); m {
	case NetNone, NetDrop, NetDelay, NetPartition:
		return m, nil
	default:
		return NetNone, fmt.Errorf("faults: unknown net mode %q (want drop, delay or partition)", s)
	}
}

// Config sets the independent per-event probabilities (all in [0,1])
// and the injected latency ceiling.
type Config struct {
	// Seed fixes the decision stream; the same seed replays the same
	// faults for the same sequence of draws.
	Seed uint64
	// LatencyP is the probability of injecting latency, drawn uniformly
	// from (0, Latency].
	LatencyP float64
	// Latency is the injected latency ceiling (default 25 ms when
	// LatencyP > 0 and no ceiling is given).
	Latency time.Duration
	// ErrorP is the probability of failing the event with ErrInjected.
	ErrorP float64
	// PanicP is the probability of panicking an HTTP request (journal
	// writes fail with ErrInjected instead — a storage layer reports
	// errors, it does not panic).
	PanicP float64
	// PartialP is the probability that a failed journal write is torn:
	// a strict prefix of the record reaches the disk before the error.
	PartialP float64
	// Disk arms a deterministic disk-fault mode at construction; see
	// SetDiskFault.
	Disk DiskMode
	// DiskN bounds the armed disk fault: after DiskN injections the
	// mode auto-clears (recover-after-N). Zero or negative means the
	// fault persists until SetDiskFault clears it.
	DiskN int
	// Net arms a deterministic replication-link fault at construction;
	// see SetNetFault.
	Net NetMode
	// NetLatency is the per-frame delay for the delay mode (default
	// 25 ms when the mode is armed without one).
	NetLatency time.Duration
	// NetN bounds the armed net fault like DiskN bounds Disk.
	NetN int
}

// Active reports whether the config injects anything at all.
func (c Config) Active() bool {
	return c.LatencyP > 0 || c.ErrorP > 0 || c.PanicP > 0 || c.PartialP > 0 ||
		c.Disk != DiskNone || c.Net != NetNone
}

func (c Config) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"latency_p", c.LatencyP}, {"error_p", c.ErrorP},
		{"panic_p", c.PanicP}, {"partial_p", c.PartialP},
	} {
		if !(p.v >= 0 && p.v <= 1) { // NaN fails too
			return fmt.Errorf("faults: %s must be in [0,1], got %v", p.name, p.v)
		}
	}
	if c.DiskN != 0 && c.Disk == DiskNone {
		return fmt.Errorf("faults: disk recover-after budget %d set with no disk mode", c.DiskN)
	}
	if c.NetN != 0 && c.Net == NetNone {
		return fmt.Errorf("faults: net recover-after budget %d set with no net mode", c.NetN)
	}
	if c.Latency < 0 {
		return fmt.Errorf("faults: latency must be ≥ 0, got %v", c.Latency)
	}
	if c.NetLatency < 0 {
		return fmt.Errorf("faults: net latency must be ≥ 0, got %v", c.NetLatency)
	}
	if c.NetLatency > 0 && c.Net != NetDelay {
		return fmt.Errorf("faults: net latency set but net mode is %q, not delay", c.Net)
	}
	return nil
}

// ParseConfig parses the CLI spec: comma-separated key=value pairs
// with keys seed, latency_p, latency (a Go duration), error_p,
// panic_p, partial_p and disk (`<mode>` or `<mode>:<n>` for
// recover-after-N), e.g.
//
//	seed=7,latency_p=0.2,latency=50ms,error_p=0.05,panic_p=0.01,partial_p=0.1
//	disk=fail-fsync:3
func ParseConfig(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Config{}, fmt.Errorf("faults: bad spec entry %q (want key=value)", kv)
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseUint(val, 10, 64)
		case "latency_p":
			cfg.LatencyP, err = strconv.ParseFloat(val, 64)
		case "latency":
			cfg.Latency, err = time.ParseDuration(val)
		case "error_p":
			cfg.ErrorP, err = strconv.ParseFloat(val, 64)
		case "panic_p":
			cfg.PanicP, err = strconv.ParseFloat(val, 64)
		case "partial_p":
			cfg.PartialP, err = strconv.ParseFloat(val, 64)
		case "disk":
			mode, budget, hasN := strings.Cut(val, ":")
			cfg.Disk, err = parseDiskMode(mode)
			if err == nil && hasN {
				cfg.DiskN, err = strconv.Atoi(budget)
				if err == nil && cfg.DiskN < 0 {
					err = fmt.Errorf("negative recover-after budget %d", cfg.DiskN)
				}
			}
		case "net":
			cfg.Net, cfg.NetLatency, cfg.NetN, err = parseNetSpec(val)
		default:
			return Config{}, fmt.Errorf("faults: unknown spec key %q", key)
		}
		if err != nil {
			return Config{}, fmt.Errorf("faults: spec %s: %w", key, err)
		}
	}
	if err := cfg.validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// parseNetSpec parses the net spec value: `drop[:N]`, `partition[:N]`,
// or `delay:<duration>[:N]` — N is the recover-after budget.
func parseNetSpec(val string) (NetMode, time.Duration, int, error) {
	parts := strings.Split(val, ":")
	mode, err := parseNetMode(parts[0])
	if err != nil {
		return NetNone, 0, 0, err
	}
	var (
		latency time.Duration
		n       int
	)
	rest := parts[1:]
	if mode == NetDelay && len(rest) > 0 {
		if latency, err = time.ParseDuration(rest[0]); err != nil {
			return NetNone, 0, 0, fmt.Errorf("net delay %q: %w", rest[0], err)
		}
		rest = rest[1:]
	}
	if len(rest) > 0 {
		if n, err = strconv.Atoi(rest[0]); err != nil {
			return NetNone, 0, 0, fmt.Errorf("net recover-after budget %q: %w", rest[0], err)
		}
		if n < 0 {
			return NetNone, 0, 0, fmt.Errorf("negative recover-after budget %d", n)
		}
		rest = rest[1:]
	}
	if len(rest) > 0 {
		return NetNone, 0, 0, fmt.Errorf("trailing net spec fields %q", strings.Join(rest, ":"))
	}
	return mode, latency, n, nil
}

// String re-emits the config in ParseConfig's grammar, so a spec can be
// logged and replayed verbatim: ParseConfig(c.String()) reproduces c for
// any valid config (the zero config renders as ""). Keys appear in the
// documented order; zero-valued fields are omitted.
func (c Config) String() string {
	var parts []string
	emit := func(key, val string) { parts = append(parts, key+"="+val) }
	if c.Seed != 0 {
		emit("seed", strconv.FormatUint(c.Seed, 10))
	}
	if c.LatencyP != 0 {
		emit("latency_p", strconv.FormatFloat(c.LatencyP, 'g', -1, 64))
	}
	if c.Latency != 0 {
		emit("latency", c.Latency.String())
	}
	if c.ErrorP != 0 {
		emit("error_p", strconv.FormatFloat(c.ErrorP, 'g', -1, 64))
	}
	if c.PanicP != 0 {
		emit("panic_p", strconv.FormatFloat(c.PanicP, 'g', -1, 64))
	}
	if c.PartialP != 0 {
		emit("partial_p", strconv.FormatFloat(c.PartialP, 'g', -1, 64))
	}
	if c.Disk != DiskNone {
		v := string(c.Disk)
		if c.DiskN > 0 {
			v += ":" + strconv.Itoa(c.DiskN)
		}
		emit("disk", v)
	}
	if c.Net != NetNone {
		v := string(c.Net)
		// The delay duration is positional, so it must be present
		// whenever a budget follows (delay:0s:3, never delay:3).
		if c.Net == NetDelay && (c.NetLatency > 0 || c.NetN > 0) {
			v += ":" + c.NetLatency.String()
		}
		if c.NetN > 0 {
			v += ":" + strconv.Itoa(c.NetN)
		}
		emit("net", v)
	}
	return strings.Join(parts, ",")
}

// Stats counts the faults actually injected.
type Stats struct {
	Latencies     uint64 `json:"latencies"`
	Errors        uint64 `json:"errors"`
	Panics        uint64 `json:"panics"`
	PartialWrites uint64 `json:"partial_writes"`
	DiskFaults    uint64 `json:"disk_faults"`
	NetDrops      uint64 `json:"net_drops"`
	NetDelays     uint64 `json:"net_delays"`
	NetPartitions uint64 `json:"net_partitions"`
}

// Injector makes fault decisions. A nil *Injector is inert, so callers
// can thread it through unconditionally.
type Injector struct {
	cfg     Config
	enabled atomic.Bool

	mu  sync.Mutex
	rng *rand.Rand

	diskMu        sync.Mutex
	diskMode      DiskMode
	diskRemaining int // >0: injections left before auto-recovery; 0: unlimited

	netMu        sync.Mutex
	netMode      NetMode
	netLatency   time.Duration
	netRemaining int // same recover-after-N countdown as disk

	latencies, errors, panics, partials, disk atomic.Uint64
	netDrops, netDelays, netPartitions        atomic.Uint64
}

// New validates the config and returns an enabled injector.
func New(cfg Config) (*Injector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.LatencyP > 0 && cfg.Latency == 0 {
		cfg.Latency = 25 * time.Millisecond
	}
	if cfg.Net == NetDelay && cfg.NetLatency == 0 {
		cfg.NetLatency = 25 * time.Millisecond
	}
	in := &Injector{cfg: cfg, rng: rand.New(rand.NewSource(int64(cfg.Seed)))}
	in.SetDiskFault(cfg.Disk, cfg.DiskN)
	in.SetNetFault(cfg.Net, cfg.NetLatency, cfg.NetN)
	in.enabled.Store(true)
	return in, nil
}

// SetDiskFault arms (or, with DiskNone, clears) a deterministic disk
// fault. With n > 0 the mode auto-clears after n injections — the
// recover-after-N shape, which lets a test drive "the disk heals on
// its own" without a second control call. n ≤ 0 keeps the fault armed
// until explicitly cleared.
func (in *Injector) SetDiskFault(mode DiskMode, n int) {
	if in == nil {
		return
	}
	in.diskMu.Lock()
	in.diskMode = mode
	if n < 0 {
		n = 0
	}
	in.diskRemaining = n
	in.diskMu.Unlock()
}

// takeDisk consumes one injection of mode if it is armed, handling the
// recover-after-N countdown.
func (in *Injector) takeDisk(mode DiskMode) bool {
	if !in.Enabled() {
		return false
	}
	in.diskMu.Lock()
	defer in.diskMu.Unlock()
	if in.diskMode != mode {
		return false
	}
	if in.diskRemaining > 0 {
		in.diskRemaining--
		if in.diskRemaining == 0 {
			in.diskMode = DiskNone
		}
	}
	in.disk.Add(1)
	return true
}

// SetNetFault arms (or, with NetNone, clears) a deterministic
// replication-link fault. latency applies to the delay mode; n > 0 is
// the recover-after-N budget (the mode auto-clears after n frames),
// n ≤ 0 keeps the fault armed until explicitly cleared.
func (in *Injector) SetNetFault(mode NetMode, latency time.Duration, n int) {
	if in == nil {
		return
	}
	in.netMu.Lock()
	in.netMode = mode
	in.netLatency = latency
	if n < 0 {
		n = 0
	}
	in.netRemaining = n
	in.netMu.Unlock()
}

// takeNet consumes one injection of mode if it is armed, handling the
// recover-after-N countdown.
func (in *Injector) takeNet(mode NetMode) bool {
	if !in.Enabled() {
		return false
	}
	in.netMu.Lock()
	defer in.netMu.Unlock()
	if in.netMode != mode {
		return false
	}
	if in.netRemaining > 0 {
		in.netRemaining--
		if in.netRemaining == 0 {
			in.netMode = NetNone
		}
	}
	return true
}

// ReplSendHook adapts the injector to the replication primary's
// outbound tail-frame seam (repl.SendHook): partition fails the send
// (cutting the connection), drop discards the frame (the follower
// detects the sequence gap and resyncs), delay stalls the frame. The
// decisions are deterministic — armed mode plus countdown, no dice —
// so a chaos test knows exactly which frames were hit.
func (in *Injector) ReplSendHook() func(size int) (drop bool, delay time.Duration, err error) {
	return func(int) (bool, time.Duration, error) {
		if in.takeNet(NetPartition) {
			in.netPartitions.Add(1)
			return false, 0, fmt.Errorf("%w (net: partition)", ErrInjected)
		}
		if in.takeNet(NetDrop) {
			in.netDrops.Add(1)
			return true, 0, nil
		}
		if in.takeNet(NetDelay) {
			in.netDelays.Add(1)
			in.netMu.Lock()
			d := in.netLatency
			in.netMu.Unlock()
			return false, d, nil
		}
		return false, 0, nil
	}
}

// SetEnabled flips injection on or off (off: every decision is clean).
// Chaos tests use it to set up fixtures through a quiet service before
// turning the noise on.
func (in *Injector) SetEnabled(v bool) { in.enabled.Store(v) }

// Enabled reports whether the injector is live.
func (in *Injector) Enabled() bool { return in != nil && in.enabled.Load() }

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		Latencies:     in.latencies.Load(),
		Errors:        in.errors.Load(),
		Panics:        in.panics.Load(),
		PartialWrites: in.partials.Load(),
		DiskFaults:    in.disk.Load(),
		NetDrops:      in.netDrops.Load(),
		NetDelays:     in.netDelays.Load(),
		NetPartitions: in.netPartitions.Load(),
	}
}

// Decision is the fault plan for one HTTP request.
type Decision struct {
	Latency time.Duration
	Err     bool
	Panic   bool
}

// Request draws the fault plan for one HTTP request. Panic and error
// are exclusive (panic wins); latency composes with either.
func (in *Injector) Request() Decision {
	if !in.Enabled() {
		return Decision{}
	}
	in.mu.Lock()
	var d Decision
	if in.cfg.LatencyP > 0 && in.rng.Float64() < in.cfg.LatencyP {
		d.Latency = time.Duration(in.rng.Int63n(int64(in.cfg.Latency))) + 1
	}
	switch {
	case in.cfg.PanicP > 0 && in.rng.Float64() < in.cfg.PanicP:
		d.Panic = true
	case in.cfg.ErrorP > 0 && in.rng.Float64() < in.cfg.ErrorP:
		d.Err = true
	}
	in.mu.Unlock()
	if d.Latency > 0 {
		in.latencies.Add(1)
	}
	if d.Panic {
		in.panics.Add(1)
	}
	if d.Err {
		in.errors.Add(1)
	}
	return d
}

// WriteDecision is the fault plan for one journal write. Keep < 0
// means the full record; 0 ≤ Keep < n means a torn write of the first
// Keep bytes (always paired with Err).
type WriteDecision struct {
	Latency time.Duration
	Err     bool
	Keep    int
}

// Write draws the fault plan for one journal write of n bytes.
func (in *Injector) Write(n int) WriteDecision {
	d := WriteDecision{Keep: -1}
	if !in.Enabled() {
		return d
	}
	in.mu.Lock()
	if in.cfg.LatencyP > 0 && in.rng.Float64() < in.cfg.LatencyP {
		d.Latency = time.Duration(in.rng.Int63n(int64(in.cfg.Latency))) + 1
	}
	if in.cfg.ErrorP > 0 && in.rng.Float64() < in.cfg.ErrorP {
		d.Err = true
	}
	if in.cfg.PartialP > 0 && in.rng.Float64() < in.cfg.PartialP {
		d.Err = true
		if n > 1 {
			d.Keep = in.rng.Intn(n-1) + 1 // a strict, non-empty prefix
		} else {
			d.Keep = 0
		}
	}
	in.mu.Unlock()
	if d.Latency > 0 {
		in.latencies.Add(1)
	}
	if d.Keep >= 0 {
		in.partials.Add(1)
	} else if d.Err {
		in.errors.Add(1)
	}
	return d
}

// JournalHook adapts the injector to the journal's write hook. Armed
// disk modes fire first (deterministically): fail-append fails with
// nothing written, corrupt-on-write returns a silently bit-flipped
// line with no error. Otherwise the seeded probabilistic plan applies:
// injected latency is slept, then the write fails cleanly or is torn
// (returning the surviving prefix with the error).
func (in *Injector) JournalHook() func(op string, encoded []byte) ([]byte, error) {
	return func(_ string, encoded []byte) ([]byte, error) {
		if in.takeDisk(DiskFailAppend) {
			return nil, fmt.Errorf("%w (disk: fail-append)", ErrInjected)
		}
		if in.takeDisk(DiskCorrupt) {
			return corruptLine(encoded), nil
		}
		d := in.Write(len(encoded))
		if d.Latency > 0 {
			time.Sleep(d.Latency)
		}
		if !d.Err {
			return encoded, nil
		}
		if d.Keep >= 0 && d.Keep < len(encoded) {
			return encoded[:d.Keep], fmt.Errorf("%w (torn write: %d of %d bytes)", ErrInjected, d.Keep, len(encoded))
		}
		return nil, ErrInjected
	}
}

// JournalSyncHook adapts the injector to the journal's fsync seam:
// with fail-fsync armed the record write succeeds but its durability
// barrier reports EIO-shaped failure.
func (in *Injector) JournalSyncHook() func() error {
	return func() error {
		if in.takeDisk(DiskFailFsync) {
			return fmt.Errorf("%w (disk: fail-fsync)", ErrInjected)
		}
		return nil
	}
}

// corruptLine flips one low bit mid-payload and keeps the length (so
// the write itself looks clean). XOR with 0x01 can never mint a
// newline from a JSON byte, so the damage stays inside the one record.
func corruptLine(encoded []byte) []byte {
	c := make([]byte, len(encoded))
	copy(c, encoded)
	end := len(c)
	if i := strings.LastIndexByte(string(c), '\t'); i > 0 {
		end = i // corrupt the JSON payload, not the checksum suffix
	}
	if end > 0 {
		c[end/2] ^= 0x01
	}
	return c
}
