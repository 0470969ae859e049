//go:build !race

package inlinec

const raceEnabled = false
