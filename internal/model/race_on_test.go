//go:build race

package model

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
