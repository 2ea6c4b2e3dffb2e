// Package cluster turns a set of independent ecrpqd processes into a
// replicated multi-node deployment. It owns the three membership
// concerns the server's router builds on:
//
//   - Placement: a consistent-hash ring maps every database name to one
//     owning node (the single writer for that name) and a fixed-size set
//     of holder nodes (owner + replicas) that serve its reads. The ring
//     is a pure function of the static peer list, so every node computes
//     identical placements with no coordination.
//   - Transport: one fault-tolerant internal/client per peer (full-jitter
//     backoff, Retry-After, circuit breaker) shared by query forwarding,
//     journal-record replication, and catch-up pulls — inter-node calls
//     get the same failure discipline external clients do.
//   - Failure detection: a per-peer prober polls /readyz on a fixed
//     interval, and the router feeds back transport failures ("passive"
//     probes), so a killed or partitioned peer is routed around within
//     one probe interval.
//
// The replication protocol itself (journal-record shipping, catch-up
// pulls, generation-monotonic apply) lives in internal/server, which has
// the registry and the persistence store; this package deliberately knows
// nothing about databases beyond their names.
//
// Fault-injection sites (active in -tags faultinject builds):
// "cluster.partition" fires before every inter-node call — probe,
// forward, replicate, catch-up — so ModeError simulates a full network
// partition and ModeDelay a degraded link; "cluster.replicate.send",
// "cluster.replicate.apply" and "cluster.catchup" target individual
// replication stages; "loop.<name>" makes a background loop skip passes.
package cluster

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"ecrpq/internal/client"
	"ecrpq/internal/faultinject"
)

// Config describes one node's view of the cluster. NodeID and Peers are
// required; everything else defaults.
type Config struct {
	// NodeID names this node; it must match one entry of Peers.
	NodeID string
	// Peers is the full static member list, this node included.
	Peers []Peer
	// ReplicationFactor is how many nodes (owner included) hold each
	// database (default 2, clamped to the peer count).
	ReplicationFactor int
	// ProbeInterval is how often each peer's /readyz is polled
	// (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round-trip (default: ProbeInterval,
	// capped at 2s).
	ProbeTimeout time.Duration
	// CatchupInterval is how often the server's catch-up loop pulls
	// missed replication records from each owner (default 2s). Stored
	// here so placement and repair cadence travel together.
	CatchupInterval time.Duration
	// Logger receives structured peer up/down transitions (default:
	// discard-free stderr logger is the server's concern; nil = silent).
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 2
	}
	if c.ReplicationFactor > len(c.Peers) {
		c.ReplicationFactor = len(c.Peers)
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
		if c.ProbeTimeout > 2*time.Second {
			c.ProbeTimeout = 2 * time.Second
		}
	}
	if c.CatchupInterval <= 0 {
		c.CatchupInterval = 2 * time.Second
	}
	return c
}

// peerState is the failure detector's view of one peer.
type peerState struct {
	healthy   bool
	lastProbe time.Time
}

// Cluster is one node's membership handle: placement lookups, per-peer
// clients, and the health table. Safe for concurrent use.
type Cluster struct {
	cfg  Config
	self Peer
	ring *Ring

	// clients are the forwarding/replication clients (breaker + backoff);
	// probes are separate no-retry clients so the prober's verdict is one
	// round-trip, not a backoff grind, and probe failures cannot be
	// absorbed by a retry loop. Both maps are keyed by peer ID and
	// immutable after New.
	clients map[string]*client.Client
	probes  map[string]*client.Client

	mu     sync.RWMutex
	health map[string]*peerState
}

// New validates cfg and builds the membership handle. Start must be
// called to begin probing.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers")
	}
	var self *Peer
	for i := range cfg.Peers {
		if cfg.Peers[i].ID == cfg.NodeID {
			self = &cfg.Peers[i]
		}
	}
	if self == nil {
		return nil, fmt.Errorf("cluster: node id %q is not in the peer list", cfg.NodeID)
	}
	c := &Cluster{
		cfg:     cfg,
		self:    *self,
		ring:    NewRing(cfg.Peers),
		clients: make(map[string]*client.Client, len(cfg.Peers)),
		probes:  make(map[string]*client.Client, len(cfg.Peers)),
		health:  make(map[string]*peerState, len(cfg.Peers)),
	}
	for _, p := range cfg.Peers {
		if p.ID == cfg.NodeID {
			continue
		}
		// Forwarding client: one quick retry only — the router has its own
		// failover (try the next holder), so grinding a long backoff
		// against one dead peer would just add latency.
		c.clients[p.ID] = client.New(client.Config{
			BaseURL:          p.URL,
			MaxRetries:       1,
			BaseDelay:        25 * time.Millisecond,
			MaxDelay:         250 * time.Millisecond,
			RetryBudget:      2 * time.Second,
			BreakerThreshold: 3,
			BreakerCooldown:  2 * cfg.ProbeInterval,
		})
		// Probe client: no retries, no breaker; the prober is the failure
		// detector and must see raw outcomes.
		c.probes[p.ID] = client.New(client.Config{
			BaseURL:          p.URL,
			MaxRetries:       -1,
			BreakerThreshold: -1,
		})
		// Peers start healthy: a fresh node should route optimistically and
		// let the first failed probe or forward mark reality.
		c.health[p.ID] = &peerState{healthy: true}
	}
	return c, nil
}

// Self returns this node's peer entry.
func (c *Cluster) Self() Peer { return c.self }

// Peers returns the full member list sorted by ID.
func (c *Cluster) Peers() []Peer { return c.ring.Peers() }

// ReplicationFactor returns how many nodes hold each database.
func (c *Cluster) ReplicationFactor() int { return c.cfg.ReplicationFactor }

// ProbeInterval returns the failure detector's polling cadence.
func (c *Cluster) ProbeInterval() time.Duration { return c.cfg.ProbeInterval }

// CatchupInterval returns the server's catch-up (and repair) pull cadence.
func (c *Cluster) CatchupInterval() time.Duration { return c.cfg.CatchupInterval }

// Owner returns the node that owns name (the single writer).
func (c *Cluster) Owner(name string) Peer { return c.ring.Owner(name) }

// Holders returns the nodes that hold name, owner first.
func (c *Cluster) Holders(name string) []Peer {
	return c.ring.Holders(name, c.cfg.ReplicationFactor)
}

// IsOwner reports whether this node owns name.
func (c *Cluster) IsOwner(name string) bool { return c.ring.Owner(name).ID == c.self.ID }

// Holds reports whether node id is one of name's holders.
func (c *Cluster) Holds(id, name string) bool {
	for _, p := range c.Holders(name) {
		if p.ID == id {
			return true
		}
	}
	return false
}

// ClientFor returns the shared fault-tolerant client for a peer (nil for
// this node's own ID or an unknown peer).
func (c *Cluster) ClientFor(id string) *client.Client { return c.clients[id] }

// Healthy reports the failure detector's current verdict for a peer.
// This node is always healthy to itself.
func (c *Cluster) Healthy(id string) bool {
	if id == c.self.ID {
		return true
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	st, ok := c.health[id]
	return ok && st.healthy
}

// MarkFailure records a passive failure observation (a forward or
// replication call that failed at the transport level), flipping the peer
// down immediately instead of waiting for the next probe.
func (c *Cluster) MarkFailure(id string) { c.setHealthy(id, false, time.Time{}) }

// MarkSuccess records a passive success observation.
func (c *Cluster) MarkSuccess(id string) { c.setHealthy(id, true, time.Time{}) }

func (c *Cluster) setHealthy(id string, healthy bool, probedAt time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.health[id]
	if !ok {
		return
	}
	if !probedAt.IsZero() {
		st.lastProbe = probedAt
	}
	if st.healthy != healthy {
		st.healthy = healthy
		if c.cfg.Logger != nil {
			c.cfg.Logger.Printf("event=peer_health peer=%s healthy=%t", id, healthy)
		}
	}
}

// PeerStatus is one row of the cluster status report.
type PeerStatus struct {
	ID        string    `json:"id"`
	URL       string    `json:"url"`
	Self      bool      `json:"self"`
	Healthy   bool      `json:"healthy"`
	LastProbe time.Time `json:"last_probe,omitempty"`
}

// Status snapshots the health table for the /v1/cluster endpoint.
func (c *Cluster) Status() []PeerStatus {
	c.mu.RLock()
	defer c.mu.RUnlock()
	peers := c.ring.Peers()
	out := make([]PeerStatus, 0, len(peers))
	for _, p := range peers {
		ps := PeerStatus{ID: p.ID, URL: p.URL, Self: p.ID == c.self.ID, Healthy: true}
		if st, ok := c.health[p.ID]; ok {
			ps.Healthy = st.healthy
			ps.LastProbe = st.lastProbe
		}
		out = append(out, ps)
	}
	return out
}

// Start launches one prober per peer on l, which owns their shutdown. Call
// exactly once. A prober polls its peer's /readyz — readiness, not liveness,
// on purpose: a draining node answers /healthz 200 but /readyz 503, and the
// router must stop sending it work in both the draining and the dead case.
func (c *Cluster) Start(l *Loops) {
	for _, p := range c.Peers() {
		if p.ID == c.self.ID {
			continue
		}
		l.Every("probe", c.cfg.ProbeInterval, func(ctx context.Context) {
			// A probe cut short by shutdown says nothing about the peer.
			if healthy := c.probeOnce(ctx, p.ID); ctx.Err() == nil {
				c.setHealthy(p.ID, healthy, time.Now())
			}
		})
	}
}

// probeOnce performs one readiness round-trip against a peer.
func (c *Cluster) probeOnce(ctx context.Context, id string) bool {
	if err := faultinject.Point("cluster.partition"); err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	_, err := c.probes[id].Ready(ctx)
	return err == nil
}
