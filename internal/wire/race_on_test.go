//go:build race

package wire

// raceEnabled reports that the race detector is active: allocation
// budgets are skipped because its instrumentation allocates too.
const raceEnabled = true
