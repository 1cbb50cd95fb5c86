//go:build race

package engine

// Reduced acceptance-test scale for the race-instrumented build; the
// full 100k × 1000 criterion runs in scale_norace.go builds.
const (
	acceptChips  = 4096
	acceptEpochs = 64
	// TestConcurrentWritesReplayExact's writer goroutines and rounds.
	replayWriters = 3
	replayRounds  = 12
)
