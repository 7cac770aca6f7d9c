package service

import (
	"container/list"
	"sync"
)

// resultCache is a mutex-guarded LRU over settled answers (immutable,
// shared by pointer): one slot per canonical request, stamped with the
// catalog generation its answer was computed on (see newestGen). A lookup
// under another generation is a miss whose run replaces the slot in
// place, so an answer a catalog write outdated goes — with the relation
// it pins — when its key is next asked, or else when the LRU reaches it.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheSlot struct {
	key string
	gen uint64
	val *answer
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

// put stores an answer computed on generation gen — unless the slot holds
// a newer one's — evicting the least recently used slot beyond capacity.
func (c *resultCache) put(key string, gen uint64, val *answer) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		if slot := el.Value.(*cacheSlot); slot.gen <= gen {
			slot.gen, slot.val = gen, val
			c.order.MoveToFront(el)
		}
		return
	}
	c.items[key] = c.order.PushFront(&cacheSlot{key: key, gen: gen, val: val})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*cacheSlot).key)
	}
}

// len returns the number of cached answers.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
