//go:build race

package core

// raceEnabled: allocation gates skip under the race detector.
const raceEnabled = true
