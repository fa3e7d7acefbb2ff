//go:build race

package gridfile

// raceEnabled reports a build with the race detector, under which a
// sync.Pool drops a quarter of its puts.
const raceEnabled = true
