package service

// Coordinator-side cluster dispatch: shard a sweep's cells across peer
// valleyd workers by rendezvous hashing over their sim-cache keys, so
// a repeated cell always lands on the worker whose cache (memory or
// spill tier) is already warm. Remote results merge into the job's
// event log through the same deliver path local cells use, preserving
// the dense-seq ordering contract; cells stranded on slow or dead
// peers are stolen — re-ranked onto the next healthy peer, then
// executed locally as the last resort — so one lost worker never loses
// a cell.

import (
	"context"
	"encoding/json"
	"strconv"
	"sync"

	"valleymap/internal/cluster"
	"valleymap/internal/obs"
)

// remoteRounds bounds how many remote attempts a cell gets before the
// coordinator executes it locally. Two rounds means: the owner, then
// one steal onto the next-ranked healthy peer.
const remoteRounds = 2

// dispatchCluster shards the sweep across the cluster client's healthy
// peers and reports whether it took ownership of the sweep. It returns
// false only when no peer is reachable at entry — the caller then fans
// the whole sweep out locally, the single-node path. Once it returns
// true, every cell has been delivered, failed or abandoned to
// cancellation, exactly like a local fan-out.
func (s *Service) dispatchCluster(ctx context.Context, sw *sweep) bool {
	cl := s.cfg.Cluster
	if len(cl.Healthy()) == 0 {
		// Every peer is in its down cooldown: degrade to plain local
		// execution rather than burning rounds on known-dead peers.
		sw.root.Annotate(obs.Attr{Key: "cluster", Value: "all_peers_down"})
		return false
	}
	sw.root.Annotate(obs.Attr{Key: "cluster", Value: "sharded"})

	pending := sw.cells
	for round := 0; round < remoteRounds && len(pending) > 0 && ctx.Err() == nil; round++ {
		healthy := cl.Healthy()
		if len(healthy) == 0 {
			break
		}
		// Group this round's cells by their best untried healthy peer.
		// Rendezvous ranking makes the choice stable across sweeps and
		// coordinators: the same key always prefers the same peer.
		batches := map[string][]*cell{}
		var exhausted []*cell
		for _, c := range pending {
			var peer string
			for _, p := range cluster.Rank(c.key, healthy) {
				if !c.tried[p] {
					peer = p
					break
				}
			}
			if peer == "" {
				// Every healthy peer already failed this cell.
				exhausted = append(exhausted, c)
				continue
			}
			if len(c.tried) > 0 {
				// Re-dispatch after a failure elsewhere: a steal.
				s.metrics.ClusterSteal()
			}
			batches[peer] = append(batches[peer], c)
		}

		var (
			wg       sync.WaitGroup
			failedMu sync.Mutex
			failed   []*cell
		)
		for peer, cells := range batches {
			s.metrics.ClusterDispatched(peer, len(cells))
			wg.Add(1)
			go func(peer string, cells []*cell) {
				defer wg.Done()
				left := s.runPeerBatch(ctx, sw, peer, cells)
				if len(left) > 0 {
					failedMu.Lock()
					failed = append(failed, left...)
					failedMu.Unlock()
				}
			}(peer, cells)
		}
		wg.Wait()
		pending = append(failed, exhausted...)
	}

	// Last resort: whatever the cluster could not place runs on the
	// local pool through the same fan-out a single-node sweep uses.
	// Stolen-to-local cells count as both a steal and a local fallback.
	if len(pending) > 0 && ctx.Err() == nil {
		for _, c := range pending {
			if len(c.tried) > 0 {
				s.metrics.ClusterSteal()
			}
			s.metrics.ClusterLocalCell()
		}
		s.fanOut(ctx, sw, pending)
	}
	return true
}

// runPeerBatch executes one peer's share of a round and returns the
// cells the peer did not deliver (to be stolen next round). Delivered
// cells are final: they leave the outstanding set before deliver runs,
// and a cell absent from the returned slice is never re-dispatched, so
// no cell can land in the event log twice.
func (s *Service) runPeerBatch(ctx context.Context, sw *sweep, peer string, cells []*cell) []*cell {
	span := sw.tr.Start(sw.root.ID(), "peer_batch",
		obs.Attr{Key: "peer", Value: peer},
		obs.Attr{Key: "cells", Value: strconv.Itoa(len(cells))},
	)
	defer span.End()

	// outstanding is confined to this goroutine: ExecuteCells invokes
	// onCell sequentially on the calling goroutine, in stream order.
	outstanding := make(map[cluster.Cell]*cell, len(cells))
	b := cluster.Batch{
		Cells:  make([]cluster.Cell, 0, len(cells)),
		Scale:  sw.scaleName,
		Config: sw.cfgName,
		Seed:   sw.seed,
	}
	for _, c := range cells {
		wc := cluster.Cell{Workload: c.sp.Abbr, Scheme: string(c.sc)}
		outstanding[wc] = c
		b.Cells = append(b.Cells, wc)
	}

	err := s.cfg.Cluster.ExecuteCells(ctx, peer, sw.tr.ID(), b, func(wc cluster.Cell, payload json.RawMessage) {
		c, ok := outstanding[wc]
		if !ok {
			// Unknown or duplicate coordinates: a confused worker.
			// Ignoring the update is always safe — the cell either
			// already delivered or was never asked for.
			return
		}
		var done CellResult
		if json.Unmarshal(payload, &done) != nil {
			// Undecodable payload: leave the cell outstanding so it
			// is stolen and re-executed (cells are deterministic
			// and cache-coalesced, so re-execution is safe; only
			// deliver must happen at most once).
			return
		}
		// The worker's identity fields are authoritative only for the
		// cells we asked it for; pin the coordinates we dispatched.
		done.Workload = wc.Workload
		done.Scheme = wc.Scheme
		delete(outstanding, wc)
		s.metrics.cellSeconds.Observe(done.Seconds)
		if !done.Cached {
			// The peer paid for a real simulation; its measured cost
			// still prices this coordinator's admission gate.
			s.costs.observe(sw.cfgName, sw.scaleName, done.Seconds)
		}
		sw.deliver(c, done)
	})
	if err != nil {
		span.Annotate(obs.Attr{Key: "error", Value: err.Error()})
		s.log.Warn("cluster batch failed; outstanding cells will be stolen",
			"peer", peer, "trace_id", sw.tr.ID(),
			"outstanding", len(outstanding), "error", err)
	}
	var left []*cell
	for _, c := range outstanding {
		if c.tried == nil {
			c.tried = map[string]bool{}
		}
		c.tried[peer] = true
		left = append(left, c)
	}
	return left
}
