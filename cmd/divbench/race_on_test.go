//go:build race

package main

// raceEnabled reports that the race detector is compiled in; its runtime
// allocates differently, so allocation counters cannot be held to baselines
// recorded without it.
const raceEnabled = true
