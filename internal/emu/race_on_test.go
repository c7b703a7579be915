//go:build race

package emu

// raceEnabled reports whether the race detector is active; the
// allocation pin is skipped under -race, whose runtime allocates.
const raceEnabled = true
