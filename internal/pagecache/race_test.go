//go:build race

package pagecache

// raceEnabled: allocation gates skip under the race detector.
const raceEnabled = true
