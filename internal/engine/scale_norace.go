//go:build !race

package engine

// Acceptance-test scale. The race detector multiplies both memory and
// time by an order of magnitude, so the raced build (scale_race.go)
// runs the same scenario at reduced scale; the issue's full
// 100k-chip × 1000-epoch criterion runs in the regular build.
const (
	acceptChips  = 100_000
	acceptEpochs = 1000
	// TestConcurrentWritesReplayExact's writer goroutines and rounds.
	replayWriters = 6
	replayRounds  = 30
)
