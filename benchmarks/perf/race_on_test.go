//go:build race

package main

// raceEnabled reports whether the race detector is compiled in. It slows
// queries about tenfold, which changes what the planner chooses.
const raceEnabled = true
