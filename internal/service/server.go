package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"awakemis"
	"awakemis/internal/buildinfo"
	"awakemis/internal/store"
	"awakemis/internal/traceid"
)

// Config sizes a Server. The zero value is usable; every field has a
// production-minded default.
type Config struct {
	// Workers is the number of simulations in flight at once (0 means
	// one per CPU, capped at 4 — simulations are themselves parallel).
	Workers int
	// SimWorkers is the total engine worker budget, divided
	// evenly among the Workers slots (0 means one per CPU), mirroring
	// Runner.Workers. Worker counts never change results.
	SimWorkers int
	// QueueSize bounds the pending-simulation queue; submissions that
	// need a new simulation when the queue is full are rejected with
	// 503 (0 means 256). Duplicate and cached submissions never take a
	// queue slot.
	QueueSize int
	// CacheBytes is the report cache's byte budget (0 means 64 MiB;
	// negative disables caching).
	CacheBytes int64
	// JobHistory caps how many finished jobs stay queryable; the oldest
	// finished jobs are forgotten first (0 means 4096).
	JobHistory int
	// Store, when non-nil, is the persistent tier under the in-memory
	// report cache: completed reports are written through to it and
	// cache misses fall back to it, so reports survive restarts and
	// grow past the memory budget. The caller opens it (store.Open)
	// and closes it after Shutdown.
	Store *store.Store
	// Forward, when non-nil, turns the server into a cluster front:
	// instead of running simulations locally, workers hand each flight
	// to the Forwarder (which shards across worker daemons). The local
	// cache, store, singleflight, queue, and study executor all still
	// apply — the front deduplicates cluster-wide before any peer sees
	// a job, and EngineRuns stays zero.
	Forward Forwarder
	// Metrics enables GET /metrics (Prometheus text format) and the
	// per-route request latency histograms behind it.
	Metrics bool
	// Logger receives the server's structured records: one per HTTP
	// request (trace id, route, status, duration) and one per job start
	// and end (trace id, spec hash, task, queue wait, run time, peer).
	// Nil silences them — tests and embedders opt in explicitly.
	Logger *slog.Logger
}

// Forwarder executes a flight on a remote worker daemon on behalf of
// a front server. Forward returns the peer's exact report bytes (the
// byte-identity contract extends across the cluster) and the address
// of the peer that served it; progress, when non-nil, receives relayed
// live-progress views from the peer while the run executes. The trace
// id carried by ctx (traceid.From) must be propagated to the peer.
// Implemented by internal/cluster.Front.
type Forwarder interface {
	Forward(ctx context.Context, spec awakemis.Spec, progress func(JobProgress)) (report []byte, peer string, err error)
	// PeerHealth reports every configured peer's last known health.
	PeerHealth() map[string]bool
}

// noopHandler is the zero-cost slog sink behind a nil Config.Logger.
// (slog.DiscardHandler needs Go 1.24; the repo still tests on 1.23.)
type noopHandler struct{}

func (noopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (noopHandler) Handle(context.Context, slog.Record) error { return nil }
func (noopHandler) WithAttrs([]slog.Attr) slog.Handler        { return noopHandler{} }
func (noopHandler) WithGroup(string) slog.Handler             { return noopHandler{} }

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = min(runtime.NumCPU(), 4)
	}
	if c.SimWorkers <= 0 {
		c.SimWorkers = runtime.NumCPU()
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.CacheBytes < 0 {
		c.CacheBytes = 0
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 4096
	}
	return c
}

// JobStatus is a job's lifecycle state on the wire.
type JobStatus string

const (
	// JobQueued: waiting for a worker (or attached to a queued
	// duplicate's flight).
	JobQueued JobStatus = "queued"
	// JobRunning: its simulation is executing.
	JobRunning JobStatus = "running"
	// JobDone: the Report is available.
	JobDone JobStatus = "done"
	// JobFailed: the run errored; Error describes why.
	JobFailed JobStatus = "failed"
	// JobCanceled: the submitter canceled before completion.
	JobCanceled JobStatus = "canceled"
)

// terminal reports whether the status is final.
func (s JobStatus) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Job is the wire view of one submission. Spec is the canonical form
// (defaults filled, seed resolved) and Hash its content address;
// identical canonical specs share one simulation and one cache entry.
type Job struct {
	ID     string        `json:"id"`
	Status JobStatus     `json:"status"`
	Hash   string        `json:"hash"`
	Spec   awakemis.Spec `json:"spec"`
	// Cached reports that the job was served from the report cache
	// without waiting on a simulation.
	Cached bool `json:"cached,omitempty"`
	// Error is set when Status is "failed".
	Error string `json:"error,omitempty"`
	// Report holds the run's Report (the exact cached bytes — equal
	// specs always receive bit-identical reports) when Status is "done".
	Report json.RawMessage `json:"report,omitempty"`
	// TraceID is the request trace id the submission carried (or was
	// minted), greppable across every daemon the job touched.
	TraceID string `json:"trace_id,omitempty"`
	// Progress is the live view of the running simulation, attached
	// while the flight executes and dropped once terminal (the Report
	// then carries the full story).
	Progress *JobProgress `json:"progress,omitempty"`
}

// job is a Job plus the server-side bookkeeping that never leaves the
// process.
type job struct {
	Job
	flight *flight
	// done closes when the job reaches a terminal state — the in-process
	// completion signal study executors wait on (HTTP clients poll).
	done chan struct{}
	// rounds/simNS are the flight tracker's totals stamped when the job
	// goes terminal (the flight pointer is cleared then), and vectorized
	// marks a job that ran as a lane of a merged cell pass — study
	// progress aggregates all three after the run is gone.
	rounds     int64
	simNS      int64
	vectorized bool
}

// flight is one in-flight (or queued) simulation shared by every job
// whose spec hashes to the same content address — the singleflight
// unit. All fields are guarded by Server.mu except spec/hash, which
// are immutable.
type flight struct {
	hash string
	spec awakemis.Spec
	jobs []*job
	// live counts attached jobs that have not been canceled; when it
	// drops to zero the flight is abandoned (and its run, if started,
	// canceled) — but one waiter's cancellation never aborts the run
	// for the others.
	live int
	// cancel aborts the running simulation at its next round boundary
	// (nil until a worker picks the flight up).
	cancel context.CancelFunc
	state  JobStatus // JobQueued until a worker starts it
	// traceID is the first submitter's trace id — the one the run (and
	// any cluster forward) executes under. Coalesced duplicates keep
	// their own ids on their jobs.
	traceID string
	// enqueued is when the flight entered the queue (queue-wait
	// telemetry).
	enqueued time.Time
	// tracker observes the running simulation for live progress (nil
	// until a worker picks the flight up).
	tracker *progressTracker
	// group, when non-nil, marks the flight as one trial lane of a
	// study cell whose siblings share a graph: the first lane a worker
	// pops drives all still-queued lanes as one vectorized run (guarded
	// by Server.mu, like the rest of the flight).
	group *vectorGroup
}

// vectorGroup ties the flights of one study cell's trials together so
// a single worker can execute them as one merged vectorized pass. The
// group is advisory: lanes popped or canceled before the drive simply
// run (or die) alone as one-lane passes, with identical results.
type vectorGroup struct {
	flights []*flight // trial order
	started bool      // set by the driving worker under Server.mu
}

// Stats is the /v1/stats payload: cache effectiveness, queue
// pressure, and job accounting. EngineRuns counts simulations
// actually started — the acceptance signal that cache hits and
// coalesced duplicates never invoke an engine.
type Stats struct {
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	Coalesced      int64 `json:"coalesced"`
	EngineRuns     int64 `json:"engine_runs"`
	CacheEntries   int   `json:"cache_entries"`
	CacheBytes     int64 `json:"cache_bytes"`
	CacheBudget    int64 `json:"cache_budget_bytes"`
	CacheEvictions int64 `json:"cache_evictions"`
	JobsSubmitted  int64 `json:"jobs_submitted"`
	JobsCompleted  int64 `json:"jobs_completed"`
	JobsFailed     int64 `json:"jobs_failed"`
	JobsCanceled   int64 `json:"jobs_canceled"`
	// Study accounting: studies are grids of sub-jobs, so one study
	// submission moves JobsSubmitted by its cell×trial count while
	// moving StudiesSubmitted by one. EngineRuns still counts actual
	// simulations — a re-submitted study leaves it unchanged.
	StudiesSubmitted int64 `json:"studies_submitted"`
	StudiesCompleted int64 `json:"studies_completed"`
	StudiesFailed    int64 `json:"studies_failed"`
	StudiesCanceled  int64 `json:"studies_canceled"`
	// QueueDepth is the number of flights waiting for a worker;
	// InFlight counts distinct simulations queued or running.
	QueueDepth int  `json:"queue_depth"`
	InFlight   int  `json:"inflight"`
	Draining   bool `json:"draining"`

	// Persistent store tier (all omitempty: the wire shape is
	// unchanged unless a store is configured). StoreHits count cache
	// misses served from disk; StoreBytes/StoreEntries meter the
	// record files; StoreCorrupt counts records discarded by
	// checksum verification; StoreErrors counts failed write-throughs.
	StoreHits      int64 `json:"store_hits,omitempty"`
	StoreMisses    int64 `json:"store_misses,omitempty"`
	StoreEntries   int64 `json:"store_entries,omitempty"`
	StoreBytes     int64 `json:"store_bytes,omitempty"`
	StoreBudget    int64 `json:"store_budget_bytes,omitempty"`
	StoreEvictions int64 `json:"store_evictions,omitempty"`
	StoreCorrupt   int64 `json:"store_corrupt,omitempty"`
	StoreErrors    int64 `json:"store_errors,omitempty"`

	// Cluster forwarding (all omitempty: present only on a front
	// daemon). Forwarded counts flights served by a peer, attributed
	// per peer in PeerForwards; ForwardErrors counts flights no peer
	// could serve.
	Forwarded     int64            `json:"forwarded,omitempty"`
	ForwardErrors int64            `json:"forward_errors,omitempty"`
	PeerForwards  map[string]int64 `json:"peer_forwards,omitempty"`
	PeersHealthy  int              `json:"peers_healthy,omitempty"`
	PeersTotal    int              `json:"peers_total,omitempty"`

	// Engine-level telemetry (omitempty: zero until a local simulation
	// executes a round — always zero on a pure front). RoundsSimulated
	// totals executed rounds across all local runs; SimSeconds totals
	// the engine time they took.
	RoundsSimulated int64   `json:"rounds_simulated,omitempty"`
	SimSeconds      float64 `json:"sim_seconds,omitempty"`

	// StudyCells counts study cells by terminal outcome ("done",
	// "cached", "failed", "canceled") across all finished studies —
	// the Prometheus awakemisd_study_cells_total series (omitempty:
	// absent until a study finishes).
	StudyCells map[string]int64 `json:"study_cells,omitempty"`

	// Build identity of the serving daemon (omitempty: absent when the
	// binary carries no module/VCS metadata). Mirrors /v1/healthz and
	// `awakemisd -version`.
	Version   string `json:"version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	BuildTime string `json:"build_time,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
}

// Server is the awakemisd core: a bounded queue of deduplicated
// simulation flights, a worker pool executing them through the public
// facade with context cancellation, a content-addressed report cache
// in front, and the HTTP API over all of it. Create with New, serve
// Handler, stop with Shutdown.
type Server struct {
	cfg    Config
	perRun int // engine workers per simulation slot

	mu        sync.Mutex
	cond      *sync.Cond // signaled on queue pushes and on drain
	jobs      map[string]*job
	doneOrder []string // finished job IDs, oldest first (history cap)
	inflight  map[string]*flight
	// queue holds flights waiting for a worker, oldest first. A slice
	// under mu (not a channel) so canceling every waiter of a queued
	// flight can remove it immediately — abandoned flights neither
	// occupy bounded-queue capacity nor reach a worker.
	queue []*flight
	cache *tieredCache
	// fwd delegates execution to a cluster of worker daemons (nil =
	// run locally); peerForwards attributes served flights per peer.
	fwd          Forwarder
	peerForwards map[string]int64
	stats        Stats
	simNS        int64 // engine time across local runs (Stats.SimSeconds)
	draining     bool
	seq          int

	// Studies: each submission fans out into sub-jobs through the same
	// Submit path (cache, coalescing, bounded queue) and aggregates
	// into a StudyResult artifact. studyDone mirrors doneOrder;
	// studyCells tallies terminal cell outcomes (Stats.StudyCells).
	studies    map[string]*studyRun
	studyDone  []string
	studySeq   int
	studyCells map[string]int64

	baseCtx    context.Context
	cancelRuns context.CancelFunc
	wg         sync.WaitGroup
	mux        *http.ServeMux
	handler    http.Handler // mux behind the trace/log/metrics middleware
	metrics    *metricsState
	logger     *slog.Logger
}

// New starts a Server: its workers run until Shutdown.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		perRun:       max(1, cfg.SimWorkers/cfg.Workers),
		jobs:         map[string]*job{},
		inflight:     map[string]*flight{},
		studies:      map[string]*studyRun{},
		cache:        newTieredCache(cfg.CacheBytes, cfg.Store),
		fwd:          cfg.Forward,
		peerForwards: map[string]int64{},
		logger:       cfg.Logger,
	}
	if s.logger == nil {
		s.logger = slog.New(noopHandler{})
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.cancelRuns = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("POST /v1/studies", s.handleSubmitStudy)
	s.mux.HandleFunc("GET /v1/studies", s.handleListStudies)
	s.mux.HandleFunc("GET /v1/studies/{id}", s.handleGetStudy)
	s.mux.HandleFunc("GET /v1/studies/{id}/events", s.handleStudyEvents)
	s.mux.HandleFunc("DELETE /v1/studies/{id}", s.handleCancelStudy)
	s.mux.HandleFunc("GET /v1/tasks", s.handleTasks)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/cluster/stats", s.handleClusterStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/dashboard", s.handleDashboard)
	if cfg.Metrics {
		s.metrics = newMetricsState()
		s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	// Trace-id adoption and request logging apply to every route;
	// latency histograms only when Metrics is on.
	s.handler = s.middleware(s.mux)
	for range cfg.Workers {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.handler }

// Shutdown drains the server: new submissions are rejected, queued
// and running simulations finish, then the workers and study
// executors exit (a study still expanding when the drain begins fails
// — its remaining sub-runs can no longer be submitted). If ctx
// expires first, in-flight simulations are canceled at their next
// round boundary (their jobs fail) and Shutdown returns ctx.Err()
// after the workers stop. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("service: already shut down")
	}
	s.draining = true
	s.stats.Draining = true
	s.cond.Broadcast() // workers finish the queue, then exit
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelRuns()
		<-done
		return ctx.Err()
	}
}

// Submit enqueues a spec and returns its job: served from cache
// (terminal, Cached), attached to an identical in-flight simulation,
// or queued as a new flight. The error is ErrInvalidSpec-wrapping for
// malformed specs and ErrUnavailable-wrapping when draining or full.
func (s *Server) Submit(spec awakemis.Spec) (Job, error) {
	return s.SubmitTraced(spec, "")
}

// SubmitTraced is Submit carrying the submitter's trace id: the job
// records it, and a new flight runs (and forwards) under it, so one
// grep follows the job across every daemon.
func (s *Server) SubmitTraced(spec awakemis.Spec, traceID string) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	canonical := Canonicalize(spec)
	hash, err := hashCanonical(canonical)
	if err != nil {
		return Job{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.submitLocked(canonical, hash, traceID)
	if err != nil {
		return Job{}, err
	}
	return j.Job, nil
}

// submitLocked is the Submit core, shared with the study executor:
// the spec is already canonical and hashed, and s.mu is held.
func (s *Server) submitLocked(canonical awakemis.Spec, hash, traceID string) (*job, error) {
	if s.draining {
		return nil, fmt.Errorf("%w: server is draining", ErrUnavailable)
	}
	s.seq++
	j := &job{
		Job: Job{
			ID:      fmt.Sprintf("j-%06d", s.seq),
			Hash:    hash,
			Spec:    canonical,
			Status:  JobQueued,
			TraceID: traceID,
		},
		done: make(chan struct{}),
	}

	if data, ok := s.cache.getMem(hash); ok {
		return s.serveCachedLocked(j, data), nil
	}
	if f, ok := s.inflight[hash]; ok {
		s.stats.JobsSubmitted++
		s.stats.Coalesced++
		j.flight = f
		j.Status = f.state
		f.jobs = append(f.jobs, j)
		f.live++
		s.jobs[j.ID] = j
		return j, nil
	}
	// The persistent tier is consulted after the in-flight index so
	// coalesced duplicates never pay for file I/O; a hit is promoted
	// into the memory LRU by the cache itself.
	if data, ok := s.cache.getDisk(hash); ok {
		return s.serveCachedLocked(j, data), nil
	}
	if len(s.queue) >= s.cfg.QueueSize {
		return nil, fmt.Errorf("%w: job queue is full (%d pending)", ErrOverloaded, s.cfg.QueueSize)
	}
	s.stats.JobsSubmitted++
	s.stats.CacheMisses++
	f := &flight{hash: hash, spec: canonical, jobs: []*job{j}, live: 1, state: JobQueued,
		traceID: traceID, enqueued: time.Now()}
	j.flight = f
	s.inflight[hash] = f
	s.jobs[j.ID] = j
	s.queue = append(s.queue, f)
	s.cond.Signal()
	return j, nil
}

// serveCachedLocked completes a fresh job from cached report bytes
// (either tier): terminal immediately, no queue slot, no engine run.
// Callers hold s.mu.
func (s *Server) serveCachedLocked(j *job, data []byte) *job {
	s.stats.JobsSubmitted++
	s.stats.CacheHits++
	s.stats.JobsCompleted++
	j.Status = JobDone
	j.Cached = true
	j.Report = data
	s.jobs[j.ID] = j
	s.finishLocked(j)
	return j
}

// Lookup returns the job's current wire view, with a live progress
// snapshot attached while its simulation runs.
func (s *Server) Lookup(id string) (Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, false
	}
	wire := j.Job
	var tracker *progressTracker
	if j.flight != nil {
		tracker = j.flight.tracker
	}
	s.mu.Unlock()
	if tracker != nil {
		// Snapshot outside s.mu: the tracker has its own lock, shared
		// with the engine goroutine.
		wire.Progress = tracker.snapshot()
	}
	return wire, true
}

// Cancel marks the job canceled. The shared simulation keeps running
// as long as any duplicate submitter still wants it; only when the
// last live job cancels is the run itself aborted (or the queued
// flight abandoned). Canceling a finished job returns ErrConflict.
func (s *Server) Cancel(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: no job %s", ErrNotFound, id)
	}
	if j.Status.terminal() {
		return j.Job, fmt.Errorf("%w: job %s already %s", ErrConflict, id, j.Status)
	}
	s.cancelLocked(j)
	return j.Job, nil
}

// cancelLocked cancels a non-terminal job; s.mu is held. Shared by
// Cancel and the study teardown paths.
func (s *Server) cancelLocked(j *job) {
	f := j.flight // finishLocked clears the pointer
	j.Status = JobCanceled
	if f != nil && f.tracker != nil {
		j.rounds, j.simNS = f.tracker.progressTotals()
	}
	s.stats.JobsCanceled++
	s.finishLocked(j)
	if f != nil {
		f.live--
		if f.live == 0 {
			// Last waiter gone: abandon the flight. Remove it from the
			// dedup index first so a new identical submission starts
			// fresh instead of attaching to a dying run, then free its
			// queue slot (if still queued) or abort its run.
			if s.inflight[f.hash] == f {
				delete(s.inflight, f.hash)
			}
			for i, queued := range s.queue {
				if queued == f {
					s.queue = append(s.queue[:i], s.queue[i+1:]...)
					break
				}
			}
			if f.cancel != nil {
				f.cancel()
			}
		}
	}
}

// StatsSnapshot returns current counters.
func (s *Server) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.SimSeconds = float64(s.simNS) / 1e9
	bi := buildinfo.Get()
	st.Version, st.Revision = bi.Version, bi.Revision
	st.BuildTime, st.GoVersion = bi.BuildTime, bi.GoVersion
	st.CacheEntries = s.cache.mem.len()
	st.CacheBytes = s.cache.mem.bytes
	st.CacheBudget = s.cache.mem.budget
	st.CacheEvictions = s.cache.mem.evicted
	st.QueueDepth = len(s.queue)
	st.InFlight = len(s.inflight)
	st.Draining = s.draining
	if d := s.cache.disk; d != nil {
		ds := d.Stats()
		st.StoreHits, st.StoreMisses = ds.Hits, ds.Misses
		st.StoreEntries, st.StoreBytes = ds.Entries, ds.Bytes
		st.StoreBudget, st.StoreEvictions = ds.Budget, ds.Evictions
		st.StoreCorrupt = ds.Corrupt
	}
	if s.fwd != nil {
		health := s.fwd.PeerHealth()
		st.PeersTotal = len(health)
		for _, up := range health {
			if up {
				st.PeersHealthy++
			}
		}
		if len(s.peerForwards) > 0 {
			st.PeerForwards = maps.Clone(s.peerForwards)
		}
	}
	if len(s.studyCells) > 0 {
		st.StudyCells = maps.Clone(s.studyCells)
	}
	return st
}

// worker executes queued flights until drain completes: on Shutdown
// it finishes whatever is still queued, then exits. Flights in the
// queue always have at least one live job — Cancel removes fully
// abandoned flights under the same lock. A popped flight that belongs
// to a not yet started study-cell group runs together with its
// still-queued siblings.
func (s *Server) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.queue) == 0 && !s.draining {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			return // draining and nothing left
		}
		f := s.queue[0]
		s.queue = s.queue[1:]
		flights := []*flight{f}
		if g := f.group; g != nil && !g.started {
			flights = s.stealGroupLocked(f)
		}
		s.runLocked(flights)
	}
}

// stealGroupLocked claims a popped flight's vector group: it marks the
// group started and removes the still-queued sibling lanes from the
// queue, returning the claimable lanes in trial order. Lanes already
// canceled (gone from the queue) are left out. Callers hold s.mu.
func (s *Server) stealGroupLocked(f *flight) []*flight {
	g := f.group
	g.started = true
	stolen := make(map[*flight]bool, len(g.flights))
	keep := s.queue[:0]
	for _, q := range s.queue {
		mate := false
		for _, m := range g.flights {
			if q == m {
				mate = true
				break
			}
		}
		if mate {
			stolen[q] = true
		} else {
			keep = append(keep, q)
		}
	}
	s.queue = keep
	lanes := make([]*flight, 0, len(g.flights))
	for _, m := range g.flights {
		if m == f || stolen[m] {
			lanes = append(lanes, m)
		}
	}
	return lanes
}

// runLocked executes flights — one flight, or the lanes of one study
// cell — as one merged engine pass with a lane per flight; a front
// forwards its single flight instead (fronts never group flights).
// Everything a flight gets — job accounting, progress tracker,
// queue-wait metrics, job start/end logs, cache and store
// write-through, EngineRuns — happens per flight, so stats and logs do
// not depend on how flights were grouped, and each flight's report
// bytes are those of a one-lane run of its spec. Called (and returns)
// with s.mu held.
func (s *Server) runLocked(flights []*flight) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	// Per-flight cancel closures honor the last-waiter rule per flight
	// without aborting the pass for the others: the real cancel fires
	// only when every flight has been released. Every f.cancel call
	// site holds s.mu, which guards the counter.
	live := len(flights)
	release := func() {
		if live--; live == 0 {
			cancel()
		}
	}
	trials := make([]awakemis.Trial, len(flights))
	waits := make([]time.Duration, len(flights))
	waiters := make([]int, len(flights))
	for i, f := range flights {
		f.cancel = release
		f.state = JobRunning
		f.tracker = newProgressTracker(f.spec.Graph.N)
		waits[i] = time.Since(f.enqueued)
		waiters[i] = len(f.jobs)
		for _, j := range f.jobs {
			if j.Status == JobQueued {
				j.Status = JobRunning
			}
		}
		trials[i] = awakemis.Trial{
			Seed:     f.spec.Options.Seed,
			Name:     f.spec.Name,
			Observer: f.tracker,
		}
	}
	if s.fwd == nil {
		s.stats.EngineRuns += int64(len(flights))
	}
	s.mu.Unlock()

	// The pass (and any forward) executes under the first flight's trace
	// id, so worker-daemon logs join the same trail; a study submits
	// every lane under one id anyway. Each flight logs its own start and
	// end.
	if flights[0].traceID != "" {
		ctx = traceid.With(ctx, flights[0].traceID)
	}
	for i, f := range flights {
		if s.metrics != nil {
			s.metrics.observeQueueWait(waits[i].Seconds())
		}
		s.logger.Info("job start",
			"trace_id", f.traceID, "hash", f.hash,
			"task", f.spec.Task, "graph_n", f.spec.Graph.N,
			"queue_wait_ns", waits[i].Nanoseconds(), "waiters", waiters[i],
			"vector_lanes", len(flights))
	}
	start := time.Now()
	datas, peer, err := s.execute(ctx, flights, trials)
	runNS := time.Since(start).Nanoseconds()
	status, errText := "done", ""
	if err != nil {
		status, errText = "failed", err.Error()
	}
	for _, f := range flights {
		s.logger.Info("job end",
			"trace_id", f.traceID, "hash", f.hash, "status", status,
			"run_ns", runNS, "peer", peer, "error", errText)
	}

	s.mu.Lock()
	cancel() // release the pass's context; also settles release stragglers
	for i, f := range flights {
		rounds, simNS := f.tracker.totals()
		s.stats.RoundsSimulated += rounds
		s.simNS += simNS
		jobRounds, jobSimNS := f.tracker.progressTotals()
		for _, j := range f.jobs {
			// Stamp every waiter with the flight's executed totals (remote
			// relays included) before the flight pointer goes away — study
			// progress keeps aggregating them after the run is gone.
			j.rounds, j.simNS = jobRounds, jobSimNS
			j.vectorized = len(flights) > 1
		}
		if s.inflight[f.hash] == f {
			delete(s.inflight, f.hash)
		}
		for _, j := range f.jobs {
			if j.Status.terminal() {
				continue // canceled waiters keep their cancellation
			}
			if err != nil {
				j.Status = JobFailed
				j.Error = err.Error()
				s.stats.JobsFailed++
			} else {
				j.Status = JobDone
				j.Report = datas[i]
				s.stats.JobsCompleted++
			}
			s.finishLocked(j)
		}
		if err == nil {
			s.cache.putMem(f.hash, datas[i])
		}
	}
	if s.fwd != nil {
		if err == nil {
			s.stats.Forwarded++
			s.peerForwards[peer]++
		} else {
			s.stats.ForwardErrors++
		}
	}
	if err == nil && s.cache.hasDisk() {
		// Persist outside the lock: gzip + fsync must not stall
		// submissions. Records are content-addressed, so a concurrent
		// equal write is an idempotent no-op.
		s.mu.Unlock()
		var failed int64
		for i, f := range flights {
			if s.cache.putDisk(f.hash, datas[i]) != nil {
				failed++
			}
		}
		s.mu.Lock()
		s.stats.StoreErrors += failed
	}
}

// execute runs the flights' pass, or forwards a front's single flight,
// and returns each flight's report bytes. A panic — a spec that passed
// validation but cannot be built — becomes an error naming the spec
// hashes, failing the jobs instead of the daemon.
func (s *Server) execute(ctx context.Context, flights []*flight, trials []awakemis.Trial) (datas [][]byte, peer string, err error) {
	defer func() {
		if r := recover(); r != nil {
			hashes := make([]string, len(flights))
			for i, f := range flights {
				hashes[i] = f.hash
			}
			datas, err = nil, fmt.Errorf("service: run of spec %s panicked: %v", strings.Join(hashes, ", "), r)
		}
	}()
	if s.fwd != nil {
		// Front mode: a peer runs the simulation; data is the peer's
		// exact report bytes, preserving byte identity cluster-wide. The
		// peer's progress views relay into the flight's tracker.
		var data []byte
		data, peer, err = s.fwd.Forward(ctx, flights[0].spec, flights[0].tracker.setRemote)
		return [][]byte{data}, peer, err
	}
	// The observers ride the trials, never the canonical specs, so they
	// cannot reach canonicalization or the wire.
	out := make([]*awakemis.Report, len(flights))
	if _, err := awakemis.Run(ctx, flights[0].spec,
		awakemis.WithWorkers(s.perRun), awakemis.WithVectorizedTrials(trials, out)); err != nil {
		return nil, "", err
	}
	datas = make([][]byte, len(out))
	for i, rep := range out {
		if datas[i], err = json.Marshal(rep); err != nil {
			return nil, "", err
		}
	}
	return datas, "", nil
}

// finishLocked records a job reaching a terminal state and enforces
// the finished-job history cap. Callers hold s.mu.
func (s *Server) finishLocked(j *job) {
	j.flight = nil
	close(j.done)
	s.doneOrder = append(s.doneOrder, j.ID)
	for len(s.doneOrder) > s.cfg.JobHistory {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
}
