//go:build race

package tracker

// raceEnabled reports that the race detector is active: allocation
// budgets are not asserted under it.
const raceEnabled = true
