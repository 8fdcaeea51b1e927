//go:build !race

package idlist

const raceEnabled = false
