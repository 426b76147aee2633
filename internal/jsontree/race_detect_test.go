//go:build race

package jsontree

// raceEnabled mirrors the -race flag: allocation-count assertions are
// skipped under the race detector, whose instrumentation allocates and
// whose sync.Pool drops pooled items at random.
const raceEnabled = true
