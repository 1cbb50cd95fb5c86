//go:build !race

package repl

// replChips is TestLargeEngineCheckpointReplicates's engine size: 40k
// chips encode to ~7.7 MB of JSON, past MaxFrame.
const replChips = 40_000
