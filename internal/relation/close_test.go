package relation

import (
	"errors"
	"testing"
)

// closeCounter is a keyed shard stream that counts its Closes.
type closeCounter struct {
	KeyedSource
	closed int
}

func (c *closeCounter) Close() { c.closed++ }

// TestCloseReachesEveryStream: one Close at the top closes every stream
// beneath it exactly as often as it was called — a merge closes the inputs
// it read, the ones it never opened and the ones it already retired, the
// test wrappers forward, and a source without a Close is passed over. A
// closed merge is over.
func TestCloseReachesEveryStream(t *testing.T) {
	rel := tieRelation(t, 29, 60, 2)
	s, err := Partition(rel, 4)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]KeyedSource, s.NumShards())
	counters := make([]*closeCounter, len(inputs))
	for i := range inputs {
		src, err := s.ShardSource(i, ScoreAccess, nil, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		counters[i] = &closeCounter{KeyedSource: src.(KeyedSource)}
		inputs[i] = counters[i]
	}
	// Input 0 is exhausted before the merge sees it, so priming retires it.
	for err == nil {
		_, err = inputs[0].Next()
	}
	merged, err := NewMergedSource(rel, ScoreAccess, inputs)
	if err != nil {
		t.Fatal(err)
	}
	var top Source = &CountingSource{Inner: &FaultySource{Inner: merged, FailAfter: 1 << 30}}
	if _, err := top.Next(); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		top.(Closer).Close()
		for i, c := range counters {
			if c.closed != round {
				t.Fatalf("Close %d: input %d closed %d times", round, i, c.closed)
			}
		}
		if _, err := top.Next(); !errors.Is(err, ErrExhausted) {
			t.Fatalf("Close %d: read of a closed merge: %v", round, err)
		}
	}
	// A cursor has nothing to let go of and no Close; its wrappers still do.
	(&CountingSource{Inner: mustOpen(t, rel, ScoreAccess, nil)}).Close()
	(&FaultySource{Inner: mustOpen(t, rel, ScoreAccess, nil)}).Close()
}
