package relfile

import (
	"encoding/binary"
	"runtime"

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
// returned relation reads the mapping in place and keeps it mapped for
// as long as it, or a stream over it, is reachable; the tuples
// it streams own their bytes (see the package comment).
func (f *File) Load(name string) (*relation.Sharded, error) {
	parent, err := relation.NewStub(name, f.maxScore, f.dim, f.tuples)
	if err != nil {
		return nil, err
	}
	shards := make([]relation.Columns, len(f.views))
	for i := range f.views {
		shards[i] = &shardView{f: f, d: &f.views[i], dim: f.dim}
	}
	return relation.AssembleSharded(parent, shards)
}

// shardView adapts one parsed shard to relation.Columns. It retains its
// *File, which keeps the mapping (or the fallback buffer) from its
// finalizer for as long as a loaded relation, or a stream over one, is
// reachable. A tuple it produces holds no such reference, so it
// copies its ID, attributes and vector onto the heap.
type shardView struct {
	f   *File
	d   *shardData
	dim int
}

func (v *shardView) Len() int { return v.d.n }

// Vec returns a view of the mapped slab, capacity clipped so an append
// copies instead of writing past the vector. It is valid only while the
// shard is reachable: index builds and bounds read it, no tuple carries
// it.
func (v *shardView) Vec(i int) vec.Vector {
	return vec.Vector(v.d.vecs[i*v.dim : (i+1)*v.dim : (i+1)*v.dim])
}

// VecSlab returns the shard's mapped vector region, what a distance scan
// keys its tuples from; like Vec, it is valid only while the shard is
// reachable.
func (v *shardView) VecSlab() []float64 { return v.d.vecs[:len(v.d.vecs):len(v.d.vecs)] }

func (v *shardView) Ordinal(i int) int { return int(v.d.ords[i]) }

// Tuple returns tuple i with a heap copy of its vector, whose capacity is
// its length, as a view's is.
func (v *shardView) Tuple(i int) relation.Tuple {
	t := v.Head(i)
	t.Vec = make(vec.Vector, v.dim)
	copy(t.Vec, v.d.vecs[i*v.dim:])
	runtime.KeepAlive(v)
	return t
}

// Head returns tuple i without its vector, for a stream that carries a
// vector of its own (an R-tree's leaf slab).
func (v *shardView) Head(i int) relation.Tuple {
	return relation.Tuple{
		ID:    string(v.d.idBytes[v.d.idOffs[i]:v.d.idOffs[i+1]]),
		Score: v.d.scores[i],
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
	runtime.KeepAlive(v)
	return m
}
