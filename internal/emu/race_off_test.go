//go:build !race

package emu

const raceEnabled = false
