//go:build race

package repl

// replChips is TestLargeEngineCheckpointReplicates's engine size under
// the race detector, which multiplies time and memory by an order of
// magnitude; 24k chips still encode past MaxFrame.
const replChips = 24_000
