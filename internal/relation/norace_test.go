//go:build !race

package relation

// raceEnabled reports a race-detector build, whose sync.Pool drops items
// at random, so allocation counts that rely on a pool are not checked.
const raceEnabled = false
