package relfile

import (
	"encoding/binary"

	"repro/internal/relation"
	"repro/internal/vec"
)

// Load assembles a servable sharded relation over the file's mapped
// columns under the given relation name (the name is a catalog concern,
// not a file one — the same file can register under any name, like a
// CSV). The parent relation is a metadata-only stub: no tuple is copied
// onto the heap, score access streams the slabs in storage order, and
// distance access traverses an R-tree built lazily per shard on first
// use, or, on a shard of dimension 8 and up with at most 8 192 tuples,
// scans the vector slab. The
// returned relation aliases the mapping — see the package comment for
// why the serving path never closes a File.
func (f *File) Load(name string) (*relation.Sharded, error) {
	parent, err := relation.NewStub(name, f.maxScore, f.dim, f.tuples)
	if err != nil {
		return nil, err
	}
	shards := make([]relation.Columns, len(f.views))
	for i := range f.views {
		shards[i] = &shardView{f: f, d: &f.views[i], dim: f.dim}
	}
	return relation.AssembleSharded(parent, shards, f.strategy)
}

// shardView adapts one parsed shard to relation.Columns. It retains its
// *File, which keeps the mapping (or the fallback buffer) reachable for
// as long as any loaded relation — or any tuple view it produced — is.
type shardView struct {
	f   *File
	d   *shardData
	dim int
}

func (v *shardView) Len() int { return v.d.n }

// Vec returns a view of the mapped slab, capacity clipped so an append
// copies instead of writing past the vector.
func (v *shardView) Vec(i int) vec.Vector {
	return vec.Vector(v.d.vecs[i*v.dim : (i+1)*v.dim : (i+1)*v.dim])
}

// VecSlab returns the shard's mapped vector region: what a distance scan
// reads, so a scan stream's vectors alias the mapping.
func (v *shardView) VecSlab() []float64 { return v.d.vecs[:len(v.d.vecs):len(v.d.vecs)] }

func (v *shardView) Ordinal(i int) int { return int(v.d.ords[i]) }

func (v *shardView) Tuple(i int) relation.Tuple {
	return relation.Tuple{
		ID:    string(v.d.idBytes[v.d.idOffs[i]:v.d.idOffs[i+1]]),
		Score: v.d.scores[i],
		Vec:   v.Vec(i),
		Attrs: v.attrs(i),
	}
}

// attrs decodes tuple i's attribute blob into a fresh map (nil when the
// tuple has none). Open validated the structure, so the walk is
// bounds-safe by construction.
func (v *shardView) attrs(i int) map[string]string {
	blob := v.d.attrBytes[v.d.attrOffs[i]:v.d.attrOffs[i+1]]
	if len(blob) == 0 {
		return nil
	}
	count := binary.LittleEndian.Uint32(blob)
	m := make(map[string]string, count)
	off := uint32(4)
	for j := uint32(0); j < count; j++ {
		kl := binary.LittleEndian.Uint32(blob[off:])
		off += 4
		k := string(blob[off : off+kl])
		off += kl
		vl := binary.LittleEndian.Uint32(blob[off:])
		off += 4
		m[k] = string(blob[off : off+vl])
		off += vl
	}
	return m
}
