package core

import "time"

// Pool is a set of independent delegation servers sharding a key space —
// the paper's multi-server configuration (e.g. FFWD-S4, which partitions a
// tree across four servers for a 4× throughput gain). ffwd deliberately
// provides no synchronization between servers: each server must own
// independent data structures or an independent partition.
type Pool struct {
	servers []*Server
}

// NewPool creates n servers, each configured by cfg.
func NewPool(n int, cfg Config) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{servers: make([]*Server, n)}
	for i := range p.servers {
		p.servers[i] = NewServer(cfg)
	}
	return p
}

// Size returns the number of servers in the pool.
func (p *Pool) Size() int { return len(p.servers) }

// Server returns the i'th server.
func (p *Pool) Server(i int) *Server { return p.servers[i] }

// ServerFor returns the server owning the shard of key, by modulus.
func (p *Pool) ServerFor(key uint64) *Server {
	return p.servers[key%uint64(len(p.servers))]
}

// ShardOf returns the shard index of key.
func (p *Pool) ShardOf(key uint64) int { return int(key % uint64(len(p.servers))) }

// RegisterAll registers f on every server, returning the common id. It
// panics if the servers' registries have diverged (ids would differ) —
// register pool-wide functions before any per-server ones.
func (p *Pool) RegisterAll(f Func) FuncID {
	id := p.servers[0].Register(f)
	for _, s := range p.servers[1:] {
		if got := s.Register(f); got != id {
			panic("core: pool registries diverged; use RegisterAll before per-server Register")
		}
	}
	return id
}

// StartAll starts every server. If any fails to start, already-started
// servers are stopped and the error returned.
func (p *Pool) StartAll() error {
	for i, s := range p.servers {
		if err := s.Start(); err != nil {
			for _, started := range p.servers[:i] {
				started.Stop()
			}
			return err
		}
	}
	return nil
}

// StopAll stops every server.
func (p *Pool) StopAll() {
	for _, s := range p.servers {
		s.Stop()
	}
}

// Healthy reports whether every shard's server goroutine is running.
func (p *Pool) Healthy() bool {
	for _, s := range p.servers {
		if !s.Alive() {
			return false
		}
	}
	return true
}

// PoolClient bundles one Client per server so a goroutine can delegate to
// any shard: the synchronous key-routed Delegate family, and Client for
// callers that route by something other than key modulus.
type PoolClient struct {
	p       *Pool
	clients []*Client
}

// NewClient allocates one client slot on every server of the pool. On
// partial failure every slot already allocated is released — a failed
// NewClient consumes nothing.
func (p *Pool) NewClient() (*PoolClient, error) {
	pc := &PoolClient{p: p, clients: make([]*Client, len(p.servers))}
	for i, s := range p.servers {
		c, err := s.NewClient()
		if err != nil {
			for _, prev := range pc.clients[:i] {
				prev.Close()
			}
			return nil, err
		}
		pc.clients[i] = c
	}
	return pc, nil
}

// MustNewClient is NewClient but panics when slots are exhausted.
func (p *Pool) MustNewClient() *PoolClient {
	pc, err := p.NewClient()
	if err != nil {
		panic(err)
	}
	return pc
}

// Close releases every per-shard client slot.
func (pc *PoolClient) Close() {
	for _, c := range pc.clients {
		c.Close()
	}
}

// Delegate routes fid(args...) to the server owning key's shard.
func (pc *PoolClient) Delegate(key uint64, fid FuncID, args ...uint64) uint64 {
	return pc.clients[pc.p.ShardOf(key)].Delegate(fid, args...)
}

// Delegate0 is the allocation-free zero-argument key-routed delegate.
func (pc *PoolClient) Delegate0(key uint64, fid FuncID) uint64 {
	return pc.clients[pc.p.ShardOf(key)].Delegate0(fid)
}

// Delegate1 is the allocation-free one-argument key-routed delegate.
func (pc *PoolClient) Delegate1(key uint64, fid FuncID, a0 uint64) uint64 {
	return pc.clients[pc.p.ShardOf(key)].Delegate1(fid, a0)
}

// Delegate2 is the allocation-free two-argument key-routed delegate.
func (pc *PoolClient) Delegate2(key uint64, fid FuncID, a0, a1 uint64) uint64 {
	return pc.clients[pc.p.ShardOf(key)].Delegate2(fid, a0, a1)
}

// Delegate3 is the allocation-free three-argument key-routed delegate.
func (pc *PoolClient) Delegate3(key uint64, fid FuncID, a0, a1, a2 uint64) uint64 {
	return pc.clients[pc.p.ShardOf(key)].Delegate3(fid, a0, a1, a2)
}

// ShardHealthy reports whether key shard i's server goroutine is running.
// A dead shard fails its keys' bounded calls with ErrServerStopped while
// the remaining shards keep serving — the pool degrades per shard rather
// than wholesale.
func (pc *PoolClient) ShardHealthy(i int) bool { return pc.p.servers[i].Alive() }

// DelegateTimeout is the key-routed Client.DelegateTimeout: a dead shard
// fails its keys fast with ErrServerStopped instead of wedging, and a
// request an earlier timeout abandoned on the same shard is drained first,
// within the same deadline.
func (pc *PoolClient) DelegateTimeout(timeout time.Duration, key uint64, fid FuncID, args ...uint64) (uint64, error) {
	return pc.clients[pc.p.ShardOf(key)].DelegateTimeout(timeout, fid, args...)
}

// DelegateRetry is the key-routed exactly-once automatic-retry round
// trip (see Client.DelegateRetry), riding out timeouts, shard crashes,
// and supervised restarts.
func (pc *PoolClient) DelegateRetry(p RetryPolicy, perTry time.Duration, key uint64, fid FuncID, args ...uint64) (uint64, error) {
	return pc.clients[pc.p.ShardOf(key)].DelegateRetry(p, perTry, fid, args...)
}

// Client returns the underlying client for shard i, for callers that
// route by something other than key modulus.
func (pc *PoolClient) Client(i int) *Client { return pc.clients[i] }
