//go:build race

package engine

// raceEnabled reports that the race detector is active: allocation
// budgets are not asserted under it.
const raceEnabled = true
