//go:build race

package rtree

// raceSlack is the allocations per run an allocation bound allows for
// the race detector, whose sync.Pool drops items at random.
const raceSlack = 1
