package service

import (
	"container/list"
	"slices"
	"sync"
)

// resultCache is a mutex-guarded LRU over settled answers (immutable,
// shared by pointer): one slot per canonical request, stamped with the
// catalog generation its answer was computed on (see newestGen). A lookup
// under another generation is a miss whose run replaces the slot in
// place. A slot names the relations and generations it was computed on
// but holds no entry, so a cached answer keeps no evicted generation
// reachable, nor the file mapping behind a relfile one. An answer over a
// heap relation does alias its index and column memory, so an answer a
// catalog write outdated is not left for the LRU to reach: the first
// answer stored on a newer generation drops every slot computed on an
// older entry of one of its relations (dropOutdated).
type resultCache struct {
	mu     sync.Mutex
	cap    int
	order  *list.List // front = most recently used
	items  map[string]*list.Element
	newest uint64 // the newest generation an answer was stored on
}

type cacheSlot struct {
	key  string
	gen  uint64
	rels []relGen // what the answer was computed on
	val  *answer
}

// relGen names one catalog entry: its relation and generation.
type relGen struct {
	name string
	gen  uint64
}

// newResultCache returns a cache holding up to capacity answers;
// capacity <= 0 disables caching entirely.
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element),
	}
}

// enabled reports whether the cache stores anything at all.
func (c *resultCache) enabled() bool { return c.cap > 0 }

// get returns the answer cached for key if it was computed on generation
// gen, and marks it most recently used.
func (c *resultCache) get(key string, gen uint64) (*answer, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok || el.Value.(*cacheSlot).gen != gen {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheSlot).val, true
}

// put stores an answer computed on entries — unless the slot holds a
// newer generation's — evicting the least recently used slot beyond
// capacity.
func (c *resultCache) put(key string, entries []*Entry, val *answer) {
	if c.cap <= 0 {
		return
	}
	gen := newestGen(entries)
	rels := make([]relGen, len(entries))
	for i, e := range entries {
		rels[i] = relGen{name: e.Relation().Name, gen: e.gen}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen > c.newest {
		c.newest = gen
		c.dropOutdated(entries)
	}
	if el, ok := c.items[key]; ok {
		if slot := el.Value.(*cacheSlot); slot.gen <= gen {
			slot.gen, slot.rels, slot.val = gen, rels, val
			c.order.MoveToFront(el)
		}
		return
	}
	c.items[key] = c.order.PushFront(&cacheSlot{key: key, gen: gen, rels: rels, val: val})
	for c.order.Len() > c.cap {
		c.remove(c.order.Back())
	}
}

// dropOutdated removes every slot computed on an older entry of a
// relation current holds: no lookup can match its generation again.
// current is one catalog snapshot (Resolve), so a slot's entry of the
// same name is either one of current or older. Callers hold c.mu.
func (c *resultCache) dropOutdated(current []*Entry) {
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		for _, old := range el.Value.(*cacheSlot).rels {
			if slices.ContainsFunc(current, func(e *Entry) bool {
				return e.gen > old.gen && e.Relation().Name == old.name
			}) {
				c.remove(el)
				break
			}
		}
		el = next
	}
}

// remove drops one slot. Callers hold c.mu.
func (c *resultCache) remove(el *list.Element) {
	c.order.Remove(el)
	delete(c.items, el.Value.(*cacheSlot).key)
}

// len returns the number of cached answers.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
