//go:build !race

package mvstm

const raceEnabled = false
