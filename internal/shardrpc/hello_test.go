package shardrpc

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/api"
	"repro/internal/relation"
	"repro/internal/vec"
)

// helloBackend answers hello with a fixed document and opens nothing.
type helloBackend struct{ hello HelloInfo }

func (b helloBackend) Hello() HelloInfo { return b.hello }

func (b helloBackend) OpenShards(relName string, shards []int, _ string, _ []float64) (relation.KeyedSource, error) {
	return nil, api.Errorf(api.CodeNotFound, "shards %v of %q are not served here", shards, relName)
}

// wellFormedHello is one dim-2 relation in one owned shard with its
// rectangle.
func wellFormedHello() RelationInfo {
	return RelationInfo{
		Name: "pts", MaxScore: 1, Dim: 2, Tuples: 10, Shards: 1,
		Owned: []OwnedShard{{Index: 0, Bounds: relation.ShardBounds{
			Min: []float64{-1, -1}, Max: []float64{1, 1}, MaxScore: 1, Tuples: 10,
		}}},
	}
}

// TestDiscoverRefusesMalformedHello: a hello is input from outside the
// process, and discovery must refuse metadata a query would later panic
// on — a negative shard count sizes a slice, a missing or short corner
// is indexed by the query's dimension.
func TestDiscoverRefusesMalformedHello(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(ri *RelationInfo)
		ok     bool
	}{
		{"well formed", func(*RelationInfo) {}, true},
		{"no rectangle", func(ri *RelationInfo) { ri.Owned[0].Bounds.Min, ri.Owned[0].Bounds.Max = nil, nil }, false},
		{"rectangle of dimension 3", func(ri *RelationInfo) {
			ri.Owned[0].Bounds.Min, ri.Owned[0].Bounds.Max = []float64{-1, -1, -1}, []float64{1, 1, 1}
		}, false},
		{"negative shard count", func(ri *RelationInfo) { ri.Shards, ri.Owned = -3, nil }, false},
		{"short min", func(ri *RelationInfo) { ri.Owned[0].Bounds.Min = []float64{-1} }, false},
		{"short max", func(ri *RelationInfo) { ri.Owned[0].Bounds.Max = []float64{1} }, false},
		{"min without max", func(ri *RelationInfo) { ri.Owned[0].Bounds.Max = nil }, false},
		{"owned shard out of range", func(ri *RelationInfo) { ri.Owned[0].Index = 1 }, false},
		{"zero dimensions", func(ri *RelationInfo) { ri.Dim = 0 }, false},
		{"no max score", func(ri *RelationInfo) { ri.MaxScore = 0 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ri := wellFormedHello()
			tc.mutate(&ri)
			fleet := NewFleet([]string{startServer(t, helloBackend{HelloInfo{Server: "h", Relations: []RelationInfo{ri}}})})
			defer fleet.Close()
			_, err := fleet.Discover(context.Background())
			if tc.ok && err != nil {
				t.Fatalf("discovery refused a usable hello: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("discovery accepted %+v", ri)
			}
		})
	}
}

// FuzzHelloDecode: whatever bytes arrive as a hello response, a relation
// that checkRelation accepts makes a stub, and every owned shard's first
// keys — the distance bound at the origin and −σ_max — are numbers.
func FuzzHelloDecode(f *testing.F) {
	seed := func(mutate func(ri *RelationInfo)) {
		ri := wellFormedHello()
		mutate(&ri)
		p, err := json.Marshal(Response{Hello: &HelloInfo{Server: "h", Relations: []RelationInfo{ri}}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	seed(func(*RelationInfo) {})
	seed(func(ri *RelationInfo) { ri.Shards, ri.Owned = -3, nil })
	seed(func(ri *RelationInfo) { ri.Owned[0].Bounds.Min, ri.Owned[0].Bounds.Max = nil, nil })
	seed(func(ri *RelationInfo) { ri.Owned[0].Bounds.Min = []float64{-1} })
	// A rectangle at the largest float: its squared distance from the
	// origin overflows.
	seed(func(ri *RelationInfo) {
		b := &ri.Owned[0].Bounds
		b.Min, b.Max = []float64{math.MaxFloat64, 0}, []float64{math.MaxFloat64, 0}
	})
	f.Fuzz(func(t *testing.T, p []byte) {
		var resp Response
		if json.Unmarshal(p, &resp) != nil || resp.Hello == nil {
			return
		}
		for _, ri := range resp.Hello.Relations {
			if checkRelation(ri) != nil {
				continue
			}
			if _, err := (&RemoteRelation{Name: ri.Name, MaxScore: ri.MaxScore, Dim: ri.Dim, Tuples: ri.Tuples}).Stub(); err != nil {
				t.Fatalf("accepted relation makes no stub: %v", err)
			}
			for _, own := range ri.Owned {
				if d := own.Bounds.Dist2LowerBound(vec.New(ri.Dim)); math.IsNaN(d) {
					t.Fatalf("shard %d: distance bound NaN from %+v", own.Index, own.Bounds)
				}
				if math.IsNaN(-own.Bounds.MaxScore) {
					t.Fatalf("shard %d: score bound NaN", own.Index)
				}
			}
		}
	})
}
