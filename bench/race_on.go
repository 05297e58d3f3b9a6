//go:build race

package main

// raceEnabled reports a -race build, whose timings mean nothing.
const raceEnabled = true
