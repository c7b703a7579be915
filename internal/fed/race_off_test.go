//go:build !race

package fed

const raceEnabled = false
