package service

import (
	"context"
	"fmt"
	"maps"
	"net/http"
	"sort"
	"time"

	"awakemis/client"
)

// PeerStatsFetcher is the optional Forwarder extension behind GET
// /v1/cluster/stats: snapshot every peer's /v1/stats concurrently,
// each fetch bounded by its own timeout, and return one row per
// configured peer — Up with the peer's decoded Stats on success, the
// fetch error otherwise. Implemented by internal/cluster.Front.
type PeerStatsFetcher interface {
	FetchPeerStats(ctx context.Context) []client.ClusterPeerStats
}

// clusterStatsTimeout bounds the whole fan-out fetch; the fetcher
// additionally bounds each peer individually, so one hung peer delays
// the response by at most its probe timeout.
const clusterStatsTimeout = 5 * time.Second

// handleClusterStats is GET /v1/cluster/stats, served by any daemon
// whose Forwarder can snapshot its peers (a front given -peers);
// everything else 404s — a worker daemon has no fleet to aggregate.
func (s *Server) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	fetcher, ok := s.fwd.(PeerStatsFetcher)
	if !ok {
		writeError(w, fmt.Errorf("%w: not a cluster front", ErrNotFound))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), clusterStatsTimeout)
	defer cancel()
	peers := fetcher.FetchPeerStats(ctx)
	sort.Slice(peers, func(i, j int) bool { return peers[i].Addr < peers[j].Addr })

	cs := client.ClusterStatsView{
		Self:       s.StatsSnapshot(),
		Peers:      peers,
		PeersTotal: len(peers),
	}
	cs.Total = cs.Self
	// Total starts as a deep copy of Self: the map fields must not be
	// shared, or merging peers would corrupt the Self view.
	cs.Total.PeerForwards = maps.Clone(cs.Self.PeerForwards)
	cs.Total.StudyCells = maps.Clone(cs.Self.StudyCells)
	// The fleet total carries no single build identity.
	cs.Total.Version, cs.Total.Revision = "", ""
	cs.Total.BuildTime, cs.Total.GoVersion = "", ""
	for _, row := range peers {
		if row.Up {
			cs.PeersUp++
			mergeStats(&cs.Total, row.Stats)
		}
	}
	writeJSON(w, http.StatusOK, cs)
}

// mergeStats folds one peer's snapshot into the fleet total: counters
// and gauges sum (queue depth and inflight are additive pressure
// across the fleet), maps merge key-wise, Draining ORs (one draining
// daemon makes the fleet partially draining), and the build-identity
// strings stay whatever the destination carries.
func mergeStats(dst *Stats, src *Stats) {
	dst.CacheHits += src.CacheHits
	dst.CacheMisses += src.CacheMisses
	dst.Coalesced += src.Coalesced
	dst.EngineRuns += src.EngineRuns
	dst.CacheEntries += src.CacheEntries
	dst.CacheBytes += src.CacheBytes
	dst.CacheBudget += src.CacheBudget
	dst.CacheEvictions += src.CacheEvictions
	dst.JobsSubmitted += src.JobsSubmitted
	dst.JobsCompleted += src.JobsCompleted
	dst.JobsFailed += src.JobsFailed
	dst.JobsCanceled += src.JobsCanceled
	dst.StudiesSubmitted += src.StudiesSubmitted
	dst.StudiesCompleted += src.StudiesCompleted
	dst.StudiesFailed += src.StudiesFailed
	dst.StudiesCanceled += src.StudiesCanceled
	dst.QueueDepth += src.QueueDepth
	dst.InFlight += src.InFlight
	dst.Draining = dst.Draining || src.Draining
	dst.StoreHits += src.StoreHits
	dst.StoreMisses += src.StoreMisses
	dst.StoreEntries += src.StoreEntries
	dst.StoreBytes += src.StoreBytes
	dst.StoreBudget += src.StoreBudget
	dst.StoreEvictions += src.StoreEvictions
	dst.StoreCorrupt += src.StoreCorrupt
	dst.StoreErrors += src.StoreErrors
	dst.Forwarded += src.Forwarded
	dst.ForwardErrors += src.ForwardErrors
	dst.PeersHealthy += src.PeersHealthy
	dst.PeersTotal += src.PeersTotal
	dst.RoundsSimulated += src.RoundsSimulated
	dst.SimSeconds += src.SimSeconds
	for peer, n := range src.PeerForwards {
		if dst.PeerForwards == nil {
			dst.PeerForwards = map[string]int64{}
		}
		dst.PeerForwards[peer] += n
	}
	for state, n := range src.StudyCells {
		if dst.StudyCells == nil {
			dst.StudyCells = map[string]int64{}
		}
		dst.StudyCells[state] += n
	}
}
