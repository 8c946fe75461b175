package delegated

import (
	"ffwd/internal/core"
	"ffwd/internal/ds"
)

// ShardedSet partitions a key space across several delegation servers,
// each owning an independent structure — the paper's FFWD-S4
// configuration (fig17) and the hash-table setup of fig18. ffwd provides
// no cross-server synchronization, so this is only a correct set because
// the shards are disjoint by construction.
type ShardedSet struct {
	pool   *core.Pool
	shards []ds.Set

	fidContains, fidInsert, fidRemove, fidLen core.FuncID
}

// NewShardedSet creates one structure per shard with mkSet and one
// delegation server per shard.
func NewShardedSet(shards, maxClientsPerServer int, mkSet func() ds.Set) *ShardedSet {
	if shards < 1 {
		shards = 1
	}
	s := &ShardedSet{
		pool:   core.NewPool(shards, core.Config{MaxClients: maxClientsPerServer}),
		shards: make([]ds.Set, shards),
	}
	for i := range s.shards {
		s.shards[i] = mkSet()
	}
	// The delegated functions dispatch on the shard index carried in
	// arg 1, so one registration per server suffices and ids align.
	reg := func(op func(set ds.Set, key uint64) uint64) core.FuncID {
		return s.pool.RegisterAll(func(a *[core.MaxArgs]uint64) uint64 {
			return op(s.shards[a[1]], a[0])
		})
	}
	s.fidContains = reg(func(set ds.Set, k uint64) uint64 { return b2u(set.Contains(k)) })
	s.fidInsert = reg(func(set ds.Set, k uint64) uint64 { return b2u(set.Insert(k)) })
	s.fidRemove = reg(func(set ds.Set, k uint64) uint64 { return b2u(set.Remove(k)) })
	s.fidLen = s.pool.RegisterAll(func(a *[core.MaxArgs]uint64) uint64 {
		return uint64(s.shards[a[1]].Len())
	})
	return s
}

// Shards returns the shard count.
func (s *ShardedSet) Shards() int { return s.pool.Size() }

// Start launches every shard server.
func (s *ShardedSet) Start() error { return s.pool.StartAll() }

// Stop halts every shard server.
func (s *ShardedSet) Stop() { s.pool.StopAll() }

// shardOf routes a key: fibonacci-hashed so dense key ranges spread.
func (s *ShardedSet) shardOf(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) % uint64(s.pool.Size())
}

// ShardedClient is a per-goroutine handle implementing ds.Set across the
// shards.
type ShardedClient struct {
	s  *ShardedSet
	pc *core.PoolClient
}

// NewClient allocates one delegation channel per shard server.
func (s *ShardedSet) NewClient() (*ShardedClient, error) {
	pc, err := s.pool.NewClient()
	if err != nil {
		return nil, err
	}
	return &ShardedClient{s: s, pc: pc}, nil
}

// MustNewClient is NewClient but panics when slots are exhausted.
func (s *ShardedSet) MustNewClient() *ShardedClient {
	c, err := s.NewClient()
	if err != nil {
		panic(err)
	}
	return c
}

func (c *ShardedClient) do(fid core.FuncID, key uint64) uint64 {
	shard := c.s.shardOf(key)
	return c.pc.Client(int(shard)).Delegate2(fid, key, shard)
}

// Contains reports whether key is in the set.
func (c *ShardedClient) Contains(key uint64) bool { return c.do(c.s.fidContains, key) == 1 }

// Insert adds key; it reports false if key was already present.
func (c *ShardedClient) Insert(key uint64) bool { return c.do(c.s.fidInsert, key) == 1 }

// Remove deletes key; it reports false if key was absent.
func (c *ShardedClient) Remove(key uint64) bool { return c.do(c.s.fidRemove, key) == 1 }

// Len sums the shard sizes; each shard is read atomically, so the total
// is exact only in quiescent states (as with any sharded structure).
func (c *ShardedClient) Len() int {
	total := 0
	for i := 0; i < c.s.Shards(); i++ {
		total += int(c.pc.Client(i).Delegate2(c.s.fidLen, 0, uint64(i)))
	}
	return total
}

var _ ds.Set = (*ShardedClient)(nil)
