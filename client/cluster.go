package client

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"selfheal/internal/cluster"
	"selfheal/internal/obs"
)

// ensureTrace pins one trace id on ctx when the caller brought none,
// so a fan-out (batch partitions, fleet-wide reads) or an owner-
// fallback walk issues every per-node request under the same id and
// the whole operation stitches into one distributed trace. A caller
// that already carries a trace — its own span, or an id adopted from
// an inbound Traceparent — keeps it.
func ensureTrace(ctx context.Context) context.Context {
	if obs.TraceContextValue(ctx) != "" {
		return ctx
	}
	return obs.ContextWithRemoteTrace(ctx, obs.NewTraceID())
}

// Cluster routes calls across a multi-node fleet by consistent-hash
// chip placement: each chip-scoped call goes straight to the chip's
// owner (the same ring the nodes use, so no 307 bounce on the happy
// path), batches are partitioned per owner and the results re-merged
// in input order, and fleet-wide reads fan out to every node.
//
// When the owner is unreachable — dead node, open breaker — the call
// falls back to the next nodes on the ring, which either serve it
// (during a membership change) or 307-forward it to wherever the chip
// lives now; the per-host breakers inside each node's Client keep one
// dead node from blocking the rest. An authoritative answer (any API
// response, success or error) ends the fallback: only transport-level
// failures move on to the next node.
//
// After a promotion, SetPeerAddr repoints a node id at its new
// address; placement is by id, so no chips move.
type Cluster struct {
	opts []Option

	mu    sync.RWMutex
	ring  *cluster.Ring
	peers map[string]*Client // node id -> that node's client

	fallbacks atomic.Uint64 // chip calls answered by a non-owner route
}

// NewCluster builds a routing client over peers (node id -> base URL).
// vnodes ≤ 0 uses cluster.DefaultVNodes; every node of the fleet must
// be configured with the same vnodes for placement to agree. opts
// apply to each per-node Client.
func NewCluster(peers map[string]string, vnodes int, opts ...Option) (*Cluster, error) {
	nodes := make([]cluster.Node, 0, len(peers))
	for id, addr := range peers {
		nodes = append(nodes, cluster.Node{ID: id, Addr: addr})
	}
	ring, err := cluster.New(nodes, vnodes)
	if err != nil {
		return nil, fmt.Errorf("client: cluster: %w", err)
	}
	cl := &Cluster{
		opts:  opts,
		ring:  ring,
		peers: make(map[string]*Client, len(peers)),
	}
	for id, addr := range peers {
		cl.peers[id] = New(addr, opts...)
	}
	return cl, nil
}

// SetPeerAddr repoints node id at addr — the client-side half of a
// promotion: the standby took over the dead primary's id, so traffic
// for that id's shards goes to the standby's address. Placement is by
// id and does not change. Unknown ids are an error; growing the ring
// needs a new Cluster (and a server-side rebalance).
func (cl *Cluster) SetPeerAddr(id, addr string) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if _, ok := cl.peers[id]; !ok {
		return fmt.Errorf("client: cluster: unknown node id %q", id)
	}
	ring, err := cl.ring.WithAddr(id, addr)
	if err != nil {
		return fmt.Errorf("client: cluster: %w", err)
	}
	cl.ring = ring
	cl.peers[id] = New(addr, cl.opts...)
	return nil
}

// Owner reports which node id owns chipID under the current ring.
func (cl *Cluster) Owner(chipID string) string {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	return cl.ring.Owner(chipID).ID
}

// ClientFor returns the Client for a node id (nil if unknown) — an
// escape hatch for node-scoped calls like Metrics.
func (cl *Cluster) ClientFor(id string) *Client {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	return cl.peers[id]
}

// Nodes lists the ring's members sorted by id.
func (cl *Cluster) Nodes() []cluster.Node {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	return cl.ring.Nodes()
}

// Fallbacks counts chip-scoped calls that were answered by a
// non-owner route (owner dead or breaker open).
func (cl *Cluster) Fallbacks() uint64 { return cl.fallbacks.Load() }

// route returns the clients to try for chipID: the owner first, then
// the remaining nodes in ring-walk-independent (sorted id) order.
func (cl *Cluster) route(chipID string) []*Client {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	owner := cl.ring.Owner(chipID).ID
	order := make([]*Client, 0, len(cl.peers))
	order = append(order, cl.peers[owner])
	for _, n := range cl.ring.Nodes() {
		if n.ID != owner {
			order = append(order, cl.peers[n.ID])
		}
	}
	return order
}

// forChip runs call against the chip's owner under one trace (see
// ensureTrace); for idempotent calls it falls back across the
// remaining nodes on transport-level failure. An *APIError is an
// authoritative answer (a node processed the request) and stops the
// walk; so does success. Non-idempotent calls never fall back: a
// transport error leaves "did it execute?" unanswered, and re-sending
// via another node could age a die twice — the same doctrine as the
// single-node client's retry policy.
func forChip[T any](cl *Cluster, ctx context.Context, chipID string, idempotent bool, call func(ctx context.Context, c *Client) (T, error)) (T, error) {
	ctx = ensureTrace(ctx)
	var (
		out T
		err error
	)
	for i, c := range cl.route(chipID) {
		out, err = call(ctx, c)
		var apiErr *APIError
		if err == nil || errors.As(err, &apiErr) {
			if i > 0 {
				cl.fallbacks.Add(1)
			}
			return out, err
		}
		if !idempotent || ctx.Err() != nil {
			break
		}
	}
	return out, err
}

// CreateChip fabricates a chip on its owner node.
func (cl *Cluster) CreateChip(ctx context.Context, req CreateChipRequest) (ChipResponse, error) {
	return forChip(cl, ctx, req.ID, false, func(ctx context.Context, c *Client) (ChipResponse, error) {
		return c.CreateChip(ctx, req)
	})
}

// DeleteChip retires a chip via its owner node.
func (cl *Cluster) DeleteChip(ctx context.Context, id string) (DeleteChipResponse, error) {
	return forChip(cl, ctx, id, true, func(ctx context.Context, c *Client) (DeleteChipResponse, error) {
		return c.DeleteChip(ctx, id)
	})
}

// Stress ages a chip via its owner node.
func (cl *Cluster) Stress(ctx context.Context, id string, req PhaseRequest) (PhaseResponse, error) {
	return forChip(cl, ctx, id, false, func(ctx context.Context, c *Client) (PhaseResponse, error) {
		return c.Stress(ctx, id, req)
	})
}

// Rejuvenate heals a chip via its owner node.
func (cl *Cluster) Rejuvenate(ctx context.Context, id string, req PhaseRequest) (PhaseResponse, error) {
	return forChip(cl, ctx, id, false, func(ctx context.Context, c *Client) (PhaseResponse, error) {
		return c.Rejuvenate(ctx, id, req)
	})
}

// Measure reads a bench chip's sensor via its owner node.
func (cl *Cluster) Measure(ctx context.Context, id string) (ReadingResponse, error) {
	return forChip(cl, ctx, id, true, func(ctx context.Context, c *Client) (ReadingResponse, error) {
		return c.Measure(ctx, id)
	})
}

// Odometer reads a monitored chip's sensor via its owner node.
func (cl *Cluster) Odometer(ctx context.Context, id string) (OdometerResponse, error) {
	return forChip(cl, ctx, id, true, func(ctx context.Context, c *Client) (OdometerResponse, error) {
		return c.Odometer(ctx, id)
	})
}

// ListChips fans out to every node and merges the fleet sorted by id.
// Chips double-reported during a rebalance are deduplicated. Nodes
// that fail are skipped; the call errors only when every node does.
func (cl *Cluster) ListChips(ctx context.Context) ([]ChipResponse, error) {
	ctx = ensureTrace(ctx)
	cl.mu.RLock()
	clients := make([]*Client, 0, len(cl.peers))
	for _, c := range cl.peers {
		clients = append(clients, c)
	}
	cl.mu.RUnlock()

	var (
		wg      sync.WaitGroup
		resMu   sync.Mutex
		byID    = make(map[string]ChipResponse)
		errs    []error
		anyGood bool
	)
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			chips, err := c.ListChips(ctx)
			resMu.Lock()
			defer resMu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			anyGood = true
			for _, ch := range chips {
				byID[ch.ID] = ch
			}
		}(c)
	}
	wg.Wait()
	if !anyGood {
		return nil, errors.Join(errs...)
	}
	out := make([]ChipResponse, 0, len(byID))
	for _, ch := range byID {
		out = append(out, ch)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// byOwner partitions a batch by each item's chip owner, sends one
// batch per node concurrently, and re-merges the per-item results in
// input order. A node-level failure is reported per item through fail,
// so one dead node fails only its own shard's items.
func byOwner[T, R any](cl *Cluster, ctx context.Context, items []T, id func(T) string,
	send func(ctx context.Context, c *Client, part []T) ([]R, error),
	fail func(it T, msg string, err error) R) []R {
	ctx = ensureTrace(ctx)
	type part struct {
		idx   []int
		items []T
	}
	parts := make(map[string]*part)
	for i, it := range items {
		owner := cl.Owner(id(it))
		p := parts[owner]
		if p == nil {
			p = &part{}
			parts[owner] = p
		}
		p.idx = append(p.idx, i)
		p.items = append(p.items, it)
	}
	results := make([]R, len(items))
	var wg sync.WaitGroup
	for owner, p := range parts {
		wg.Add(1)
		go func(owner string, p *part) {
			defer wg.Done()
			res, err := forChip(cl, ctx, id(p.items[0]), false, func(ctx context.Context, c *Client) ([]R, error) {
				return send(ctx, c, p.items)
			})
			if err != nil || len(res) != len(p.idx) {
				msg := fmt.Sprintf("node %s unreachable", owner)
				if err != nil {
					msg = err.Error()
				}
				for _, i := range p.idx {
					results[i] = fail(items[i], msg, err)
				}
				return
			}
			for k, i := range p.idx {
				results[i] = res[k]
			}
		}(owner, p)
	}
	wg.Wait()
	return results
}

// BatchCreateChips partitions a bulk create by owner (see byOwner).
func (cl *Cluster) BatchCreateChips(ctx context.Context, chips []CreateChipRequest) (BatchCreateResponse, error) {
	out := BatchCreateResponse{Results: byOwner(cl, ctx, chips,
		func(sp CreateChipRequest) string { return sp.ID },
		func(ctx context.Context, c *Client, part []CreateChipRequest) ([]BatchCreateResult, error) {
			resp, err := c.BatchCreateChips(ctx, part)
			return resp.Results, err
		},
		func(sp CreateChipRequest, msg string, err error) BatchCreateResult {
			return BatchCreateResult{ID: sp.ID, Error: msg, Err: err}
		})}
	for _, r := range out.Results {
		if r.Error != "" {
			out.Failed++
		} else {
			out.Created++
		}
	}
	return out, nil
}

// BatchOps partitions a mixed-operation batch by each item's chip
// owner (see byOwner).
func (cl *Cluster) BatchOps(ctx context.Context, ops []BatchOpSpec) (BatchOpsResponse, error) {
	out := BatchOpsResponse{Results: byOwner(cl, ctx, ops,
		func(op BatchOpSpec) string { return op.ID },
		func(ctx context.Context, c *Client, part []BatchOpSpec) ([]BatchOpResult, error) {
			resp, err := c.BatchOps(ctx, part)
			return resp.Results, err
		},
		func(op BatchOpSpec, msg string, err error) BatchOpResult {
			return BatchOpResult{Op: op.Op, ID: op.ID, Error: msg, Err: err}
		})}
	for _, r := range out.Results {
		if r.Error != "" {
			out.Failed++
		} else {
			out.Succeeded++
		}
	}
	return out, nil
}

// Health checks liveness of every node; the error joins each failing
// node's report.
func (cl *Cluster) Health(ctx context.Context) error {
	ctx = ensureTrace(ctx)
	cl.mu.RLock()
	clients := make(map[string]*Client, len(cl.peers))
	for id, c := range cl.peers {
		clients[id] = c
	}
	cl.mu.RUnlock()
	var errs []error
	for id, c := range clients {
		if err := c.Health(ctx); err != nil {
			errs = append(errs, fmt.Errorf("node %s: %w", id, err))
		}
	}
	return errors.Join(errs...)
}
