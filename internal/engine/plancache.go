package engine

import (
	"container/list"

	"mtcache/internal/metrics"
	"mtcache/internal/opt"
	"mtcache/internal/querystore"
)

// defaultPlanCacheCap bounds the per-database plan cache when Config leaves
// PlanCacheCap zero. Distinct query texts beyond the cap evict the least
// recently used plan (counted by engine.plan_cache_evictions), so ad-hoc
// query churn cannot grow the cache without limit.
const defaultPlanCacheCap = 256

// planLRU is the bounded plan cache. Not self-locking: the Database guards
// it with planMu.
type planLRU struct {
	cap   int
	items map[string]*list.Element
	order *list.List // front = most recently used

	// gen counts invalidations. planCached snapshots it before optimizing
	// outside the lock and refuses to insert a plan produced against a
	// generation that has since been cleared — otherwise a plan referencing
	// a dropped view could outlive the DDL that invalidated it.
	gen uint64
}

type planEntry struct {
	key  string
	plan *opt.Plan
}

func newPlanLRU(cap int) *planLRU {
	if cap <= 0 {
		cap = defaultPlanCacheCap
	}
	return &planLRU{cap: cap, items: make(map[string]*list.Element), order: list.New()}
}

func (c *planLRU) get(key string) (*opt.Plan, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*planEntry).plan, true
}

func (c *planLRU) put(key string, p *opt.Plan) {
	if el, ok := c.items[key]; ok {
		el.Value.(*planEntry).plan = p
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&planEntry{key: key, plan: p})
	for len(c.items) > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		victim := back.Value.(*planEntry).key
		delete(c.items, victim)
		metrics.Default.Counter("engine.plan_cache_evictions").Add(1)
		if len(victim) > 120 {
			victim = victim[:120] + "…"
		}
		querystore.Emit("plan_evicted", "shape", victim)
	}
}

func (c *planLRU) clear() {
	c.items = make(map[string]*list.Element)
	c.order.Init()
	c.gen++
}

func (c *planLRU) len() int { return len(c.items) }
