//go:build race

package idlist

// raceEnabled reports a -race build, where sync.Pool drops items at random
// and allocation counts stop being meaningful.
const raceEnabled = true
