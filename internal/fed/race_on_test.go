//go:build race

package fed

// raceEnabled reports whether the race detector is active; the
// allocation pins are skipped under -race, whose runtime allocates.
const raceEnabled = true
