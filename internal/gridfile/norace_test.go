//go:build !race

package gridfile

const raceEnabled = false
