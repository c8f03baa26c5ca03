//go:build !race

package tracker

const raceEnabled = false
