// Package qcache implements a bounded, sharded-lock memoization cache for
// query results, keyed by (dataset epoch, focal point, k, query shape) and
// generic over the stored value (the server stores rendered result rows).
// It exploits the repeated-focal-point skew of production serving
// workloads: many users ask near-identical questions of the same dataset,
// and an immutable relation answers them identically until its epoch
// changes.
//
// The epoch is part of the key, so invalidation is free: bumping a
// relation's epoch (Relation.Invalidate, the hook the ROADMAP's mutability
// work will drive) makes every cached entry unreachable, and the bounded
// eviction recycles the stale slots. Hits return the stored value without
// copying or allocating; callers must treat it as immutable.
package qcache

import (
	"math"
	"sync"
)

// Shape distinguishes query kinds sharing one cache, so a kNN-select and a
// future cached shape with the same (focal, k) never collide.
type Shape uint8

// The cached query shapes.
const (
	// ShapeKNNSelect is the k-nearest-neighbor select.
	ShapeKNNSelect Shape = iota
)

// Key identifies one cached query result. Float coordinates participate as
// exact bit patterns (the struct is comparable), matching the engine's
// exact-float semantics: two focals hit the same entry iff the engine would
// compute the identical answer.
type Key struct {
	Epoch  uint64
	FX, FY float64
	K      int
	Shape  Shape
}

// nShards is the lock-shard count; requests hash across it so concurrent
// probes rarely contend.
const nShards = 16

type shard[V any] struct {
	mu sync.Mutex
	m  map[Key]V
}

// Cache is a bounded memo from Key to result values, safe for concurrent
// use.
type Cache[V any] struct {
	perShard int
	shards   [nShards]shard[V]
}

// New returns a cache bounded at roughly capacity entries (split evenly
// across the lock shards). capacity <= 0 selects a default of 4096.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = 4096
	}
	per := (capacity + nShards - 1) / nShards
	c := &Cache[V]{perShard: per}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]V, per)
	}
	return c
}

// hash mixes the key's bits (FNV-1a over the fields) to pick a lock shard.
func (k Key) hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= prime
			v >>= 8
		}
	}
	mix(k.Epoch)
	mix(math.Float64bits(k.FX))
	mix(math.Float64bits(k.FY))
	mix(uint64(k.K))
	mix(uint64(k.Shape))
	return h
}

// Get returns the cached value for key. The value is shared — the caller
// must not mutate it. The hit path performs no allocation.
func (c *Cache[V]) Get(key Key) (V, bool) {
	s := &c.shards[key.hash()%nShards]
	s.mu.Lock()
	v, ok := s.m[key]
	s.mu.Unlock()
	return v, ok
}

// Put stores v under key, evicting an arbitrary resident entry when the
// key's shard is full. The cache takes ownership of v.
func (c *Cache[V]) Put(key Key, v V) {
	s := &c.shards[key.hash()%nShards]
	s.mu.Lock()
	if _, resident := s.m[key]; !resident && len(s.m) >= c.perShard {
		for k := range s.m {
			delete(s.m, k)
			break
		}
	}
	s.m[key] = v
	s.mu.Unlock()
}

// Len returns the number of resident entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
