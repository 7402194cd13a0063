package serve

import (
	"sync"

	"repro/internal/mapreduce"
)

// clusterPool keeps warm per-pass Cluster objects. A pass used to build a
// fresh cluster through the factory every time; pooling them keeps whatever
// the factory wired — tracer, progress tracker, and above all the Executor
// handle — alive across passes. For remote backends (subprocess/tcp worker
// pools) the executor handle is the dialed, handshaken connection pool, so
// reuse is the daemon's warm keep-alive: no re-dial and no re-handshake per
// pass. Clusters are handed out exclusively (get/put
// pairs), so a pooled cluster is never shared between concurrent passes, and
// the pool never closes an executor — it outlives every pass by design.
type clusterPool struct {
	mu      sync.Mutex
	free    []*mapreduce.Cluster
	slaves  int
	factory func(slaves int) *mapreduce.Cluster
}

func newClusterPool(slaves int, factory func(slaves int) *mapreduce.Cluster) *clusterPool {
	return &clusterPool{slaves: slaves, factory: factory}
}

// get returns a warm cluster, building one through the factory when the pool
// is empty. The caller owns it until put.
func (p *clusterPool) get() *mapreduce.Cluster {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c
	}
	p.mu.Unlock()
	return p.factory(p.slaves)
}

// put returns a cluster to the pool, clearing the per-pass trace context so
// a later pass cannot inherit a stale trace identity.
func (p *clusterPool) put(c *mapreduce.Cluster) {
	c.TraceContext = nil
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}
