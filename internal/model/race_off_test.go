//go:build !race

package model

// raceEnabled reports whether the race detector instruments this build.
// The allocation gate is calibrated for uninstrumented builds — the race
// runtime adds its own per-call allocations.
const raceEnabled = false
