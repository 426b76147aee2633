//go:build !race

package jsontree

// raceEnabled mirrors the -race flag; see race_detect_test.go.
const raceEnabled = false
