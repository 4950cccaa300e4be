//go:build !race

package strong

const raceEnabled = false
