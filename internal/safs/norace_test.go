//go:build !race

package safs

// raceEnabled: allocation gates skip under the race detector.
const raceEnabled = false
