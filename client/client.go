// Package client is the typed Go client for the awakemisd service
// API: submit Specs, poll jobs, wait for Reports, cancel, and read
// the registry, stats, and health endpoints. It also declares the
// API's wire types — Job, Study, Stats, Health and the rest are the
// daemon's own: internal/service encodes exactly these structs, so
// there is one definition of every JSON document the daemon serves.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"awakemis"
	"awakemis/internal/traceid"
)

// TraceIDHeader is the HTTP header carrying the request trace id. The
// client stamps it on every request whose context carries an id (see
// WithTraceID); Submit/SubmitStudy/Run mint one when absent, so every
// submission is greppable across the daemons it touches.
const TraceIDHeader = traceid.Header

// WithTraceID returns ctx carrying the given trace id; subsequent
// client calls under this ctx stamp it on their requests.
func WithTraceID(ctx context.Context, id string) context.Context {
	return traceid.With(ctx, id)
}

// TraceID returns the trace id carried by ctx, or "".
func TraceID(ctx context.Context) string { return traceid.From(ctx) }

// JobStatus is a job's (or study's) lifecycle state on the wire.
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

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
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

// JobProgress is the live view of a running job's simulation,
// attached to the wire Job while its flight executes (GET
// /v1/jobs/{id} and the SSE event stream). All fields are
// best-effort observability data — they never feed back into results.
type JobProgress struct {
	// Rounds is the round horizon reached so far (last observed round
	// number + 1); Executed counts rounds actually executed (all-asleep
	// rounds are skipped by the engines).
	Rounds   int64 `json:"rounds"`
	Executed int64 `json:"executed"`
	// Awake is the awake-node count of the last observed round, and
	// AwakeFrac the same as a fraction of the graph size.
	Awake     int     `json:"awake"`
	AwakeFrac float64 `json:"awake_frac"`
	// ElapsedMS is wall time since the simulation started.
	ElapsedMS float64 `json:"elapsed_ms"`
	// ETAMS estimates the remaining wall time by geometric-decay
	// extrapolation of the awake count (the paper's algorithms put
	// nodes to sleep at roughly constant rate in log-scale). Omitted
	// until the awake count is decaying.
	ETAMS float64 `json:"eta_ms,omitempty"`
}

// DecodeReport unmarshals the job's Report (Status must be "done").
func (j *Job) DecodeReport() (*awakemis.Report, error) {
	if j.Status != JobDone {
		return nil, fmt.Errorf("client: job %s is %s, not done", j.ID, j.Status)
	}
	var rep awakemis.Report
	if err := json.Unmarshal(j.Report, &rep); err != nil {
		return nil, fmt.Errorf("client: decoding report of job %s: %w", j.ID, err)
	}
	return &rep, nil
}

// TaskInfo is the /v1/tasks wire view of one registry entry.
type TaskInfo struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Summary  string `json:"summary"`
	IDScheme string `json:"id_scheme"`
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
	// unchanged unless the daemon runs with -store-dir). StoreHits
	// count cache misses served from disk; StoreBytes/StoreEntries
	// meter the record files; StoreCorrupt counts records discarded by
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
	// daemon given -peers). Forwarded counts flights served by a peer,
	// attributed per peer in PeerForwards; ForwardErrors counts
	// flights no peer could serve.
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
	// binary carries no module/VCS metadata). Mirrors Health and
	// `awakemisd -version`.
	Version   string `json:"version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	BuildTime string `json:"build_time,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
}

// Health is the /v1/healthz payload: liveness ("ok" or "draining")
// plus the build identity of the serving binary, so every daemon in a
// cluster can be identified from the outside.
type Health struct {
	Status    string `json:"status"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	BuildTime string `json:"build_time,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
}

// APIError is a non-2xx response decoded from the server's JSON error
// envelope.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint (zero when the
	// response carried none). The daemon attaches it to queue-full
	// 503s but not to draining 503s, and the Submit paths use exactly
	// that distinction to decide whether backing off can help.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("awakemisd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// IsRetryable reports whether the request may succeed later (the
// server was draining or its queue full).
func (e *APIError) IsRetryable() bool {
	return e.StatusCode == http.StatusServiceUnavailable
}

// transient reports whether the error is a backoff-and-retry 503: the
// server explicitly said the condition is temporary.
func (e *APIError) transient() bool {
	return e.StatusCode == http.StatusServiceUnavailable && e.RetryAfter > 0
}

// Client talks to one awakemisd daemon.
type Client struct {
	baseURL string
	http    *http.Client
	// PollInterval paces Wait's status polling (default 25ms, backing
	// off 1.5x to 1s between polls).
	PollInterval time.Duration
	// MaxRetries bounds how many times Submit/SubmitStudy retry a
	// queue-full 503 (one marked Retry-After by the server) before
	// surfacing it, backing off exponentially with jitter between
	// attempts. 0 means the default 4; negative disables retrying.
	MaxRetries int
}

// New returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:7600"). httpClient nil means http.DefaultClient.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{baseURL: strings.TrimRight(baseURL, "/"), http: httpClient}
}

// BaseURL returns the daemon base URL this client talks to.
func (c *Client) BaseURL() string { return c.baseURL }

// do issues one request and decodes the JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var reqBody io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		reqBody = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, reqBody)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	traceid.Stamp(ctx, req)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var apiErr struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		var retryAfter time.Duration
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		return &APIError{StatusCode: resp.StatusCode, Message: msg, RetryAfter: retryAfter}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// submitBackoff runs a POST with bounded exponential backoff on
// queue-full 503s: attempts are spaced base·2ᵏ plus up to 100% jitter
// (decorrelating a thundering herd of retriers), capped at 2s per
// wait, at most MaxRetries retries, and every wait aborts promptly
// when ctx ends. Any other error — including a draining 503, which
// carries no Retry-After — is surfaced immediately.
func (c *Client) submitBackoff(ctx context.Context, path string, body, out any) error {
	retries := c.MaxRetries
	if retries == 0 {
		retries = 4
	}
	const maxWait = 2 * time.Second
	wait := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		err := c.do(ctx, http.MethodPost, path, body, out)
		apiErr := new(APIError)
		if err == nil || attempt >= retries || !errors.As(err, &apiErr) || !apiErr.transient() {
			return err
		}
		d := wait + rand.N(wait) // wait..2·wait
		if d > maxWait {
			d = maxWait
		}
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
		if wait *= 2; wait > maxWait {
			wait = maxWait
		}
	}
}

// Submit posts one spec and returns its job — possibly already done
// when served from the report cache. Queue-full rejections are
// retried with backoff (see MaxRetries). The submission runs under
// the ctx's trace id, minting one if absent, so every retry and the
// daemon-side records share it.
func (c *Client) Submit(ctx context.Context, spec awakemis.Spec) (*Job, error) {
	ctx, _ = traceid.Ensure(ctx)
	var job Job
	if err := c.submitBackoff(ctx, "/v1/jobs", spec, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Job fetches a job's current state.
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Cancel asks the server to cancel the job and returns its final
// state. Other submitters of the same spec are unaffected.
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// poll fetches repeatedly until terminal reports the value final or
// ctx ends, pacing with the client's backoff (PollInterval, 1.5x up
// to 1s) plus up to 100% jitter per sleep — the submit path's
// decorrelation convention, so a fleet of waiters released by the
// same event doesn't poll in lockstep. Every wait aborts promptly
// when ctx ends. onPoll, when non-nil, observes every fetched state —
// the shared loop behind Wait and WaitStudy.
func poll[T any](ctx context.Context, c *Client, fetch func(context.Context) (*T, error), terminal func(*T) bool, onPoll func(*T)) (*T, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	for {
		v, err := fetch(ctx)
		if err != nil {
			return nil, err
		}
		if onPoll != nil {
			onPoll(v)
		}
		if terminal(v) {
			return v, nil
		}
		timer := time.NewTimer(interval + rand.N(interval)) // interval..2·interval
		select {
		case <-ctx.Done():
			timer.Stop()
			return v, ctx.Err()
		case <-timer.C:
		}
		if interval = interval * 3 / 2; interval > time.Second {
			interval = time.Second
		}
	}
}

// Wait polls the job until it reaches a terminal state or ctx ends.
func (c *Client) Wait(ctx context.Context, id string) (*Job, error) {
	return poll(ctx, c,
		func(ctx context.Context) (*Job, error) { return c.Job(ctx, id) },
		func(j *Job) bool { return j.Status.Terminal() }, nil)
}

// WaitJob follows the job to a terminal state, preferring the server's
// SSE event stream (GET /v1/jobs/{id}/events) — every state change,
// including live progress, arrives as it happens — and transparently
// falling back to Wait's polling loop against daemons without the
// stream. onUpdate, when non-nil, observes every received state.
func (c *Client) WaitJob(ctx context.Context, id string, onUpdate func(*Job)) (*Job, error) {
	job, err := c.waitSSE(ctx, id, onUpdate)
	if err == nil {
		return job, nil
	}
	if ctx.Err() != nil {
		return job, ctx.Err()
	}
	// The stream failed mid-flight or isn't served (older daemon,
	// buffering proxy): fall back to polling.
	return poll(ctx, c,
		func(ctx context.Context) (*Job, error) { return c.Job(ctx, id) },
		func(j *Job) bool { return j.Status.Terminal() }, onUpdate)
}

// errNoStream marks an events endpoint that did not produce an SSE
// stream; WaitJob and WaitStudy fall back to polling.
var errNoStream = errors.New("client: no event stream")

// waitSSE consumes the job's SSE stream until a terminal state.
func (c *Client) waitSSE(ctx context.Context, id string, onUpdate func(*Job)) (*Job, error) {
	return streamSSE(ctx, c, "/v1/jobs/"+id+"/events",
		func(j *Job) bool { return j.Status.Terminal() }, onUpdate)
}

// streamSSE consumes one record's SSE stream until terminal reports a
// frame final — the shared transport behind waitSSE and WaitStudy.
// Any transport or framing problem maps to errNoStream so the caller
// can fall back to polling.
func streamSSE[T any](ctx context.Context, c *Client, path string, terminal func(*T) bool, onUpdate func(*T)) (*T, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	traceid.Stamp(ctx, req)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, errNoStream
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK ||
		!strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return nil, errNoStream
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20) // a done frame carries the full report
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		v := new(T)
		if err := json.Unmarshal([]byte(data), v); err != nil {
			return nil, errNoStream
		}
		if onUpdate != nil {
			onUpdate(v)
		}
		if terminal(v) {
			return v, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return nil, errNoStream // stream ended without a terminal state
}

// Run submits the spec and waits for its Report: the remote
// equivalent of awakemis.Run. A failed or canceled job is an
// error.
func (c *Client) Run(ctx context.Context, spec awakemis.Spec) (*awakemis.Report, error) {
	ctx, _ = traceid.Ensure(ctx)
	job, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	if !job.Status.Terminal() {
		if job, err = c.WaitJob(ctx, job.ID, nil); err != nil {
			return nil, err
		}
	}
	switch job.Status {
	case JobDone:
		return job.DecodeReport()
	case JobFailed:
		return nil, fmt.Errorf("awakemisd: job %s failed: %s", job.ID, job.Error)
	default:
		return nil, fmt.Errorf("awakemisd: job %s was %s", job.ID, job.Status)
	}
}

// Study is the wire view of one submitted study: a declarative
// parameter-sweep grid whose cells execute as ordinary jobs through
// the daemon's cache and singleflight — so a re-submitted study costs
// zero simulations — and whose Reports aggregate server-side into a
// StudyResult artifact. Spec is the server's resolved form.
type Study struct {
	ID     string             `json:"id"`
	Status JobStatus          `json:"status"`
	Spec   awakemis.StudySpec `json:"spec"`
	// Done of Total sub-runs have finished.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Error is set when Status is "failed".
	Error string `json:"error,omitempty"`
	// Result holds the StudyResult artifact when Status is "done" —
	// byte-identical to a local `awakemis -study` run of the same
	// spec, because the daemon assembles it through the same public
	// accumulator.
	Result json.RawMessage `json:"result,omitempty"`
	// Progress is the live per-cell view of the grid (states, executed
	// rounds, ETA), attached once the executor starts and frozen at
	// the terminal state — so a finished study still reports which
	// cells the cache served.
	Progress *StudyProgress `json:"progress,omitempty"`
}

// StudyProgress is the live view of a running study, attached to the
// wire Study on GET /v1/studies/{id} and the SSE event stream. The
// per-cell states and every counter are monotone while the study
// runs, and the terminal view is frozen at completion — a finished
// study keeps reporting which cells were served from cache and how
// many rounds its grid actually executed. Best-effort observability
// data; it never feeds into the StudyResult artifact.
type StudyProgress struct {
	// Cells is the per-cell ticker, in grid enumeration order.
	Cells []StudyCellProgress `json:"cells"`
	// Aggregate cell counts by state (cached cells are not double
	// counted under done).
	CellsQueued   int `json:"cells_queued"`
	CellsRunning  int `json:"cells_running"`
	CellsDone     int `json:"cells_done"`
	CellsCached   int `json:"cells_cached"`
	CellsFailed   int `json:"cells_failed,omitempty"`
	CellsCanceled int `json:"cells_canceled,omitempty"`
	// RunsDone counts sub-runs that produced a report (the live
	// counterpart of the study's Done field, which advances in spec
	// order); RunsCached counts the ones served from cache.
	RunsDone   int `json:"runs_done"`
	RunsCached int `json:"runs_cached,omitempty"`
	// ExecutedRounds totals rounds executed by the study's sub-runs so
	// far (live trackers plus finished jobs); EngineSeconds totals the
	// engine time they took (zero through a cluster front, where the
	// worker daemons own the engine clocks). LanesVectorized counts
	// sub-runs executed as lanes of a merged vectorized cell pass.
	ExecutedRounds  int64   `json:"executed_rounds"`
	EngineSeconds   float64 `json:"engine_seconds"`
	LanesVectorized int     `json:"lanes_vectorized,omitempty"`
	// ElapsedMS is wall time since submission; ETAMS extrapolates the
	// remaining wall time from the completion rate so far (omitted
	// until the first sub-run finishes, zero once terminal).
	ElapsedMS float64 `json:"elapsed_ms"`
	ETAMS     float64 `json:"eta_ms,omitempty"`
}

// CellState is one study cell's lifecycle state on the wire. It is
// derived from the cell's trial sub-jobs, so it moves exactly as far
// as they do: queued → running → done, with "cached" marking a cell
// every one of whose trials was served from the report cache without
// an engine run (a cell that mixes cached and executed trials reports
// "done" with a nonzero Cached count).
type CellState string

const (
	CellQueued   CellState = "queued"
	CellRunning  CellState = "running"
	CellDone     CellState = "done"
	CellCached   CellState = "cached"
	CellFailed   CellState = "failed"
	CellCanceled CellState = "canceled"
)

// StudyCellProgress is the live view of one aggregation cell: its
// identity (mirroring awakemis.StudyCell) plus how far its trials
// have gotten.
type StudyCellProgress struct {
	Index  int    `json:"index"`
	Task   string `json:"task"`
	Family string `json:"family"`
	N      int    `json:"n"`
	Engine string `json:"engine"`
	// State summarizes the cell's trials; Done of Trials sub-runs have
	// produced a report, Cached of them straight from the cache.
	State  CellState `json:"state"`
	Done   int       `json:"done"`
	Trials int       `json:"trials"`
	Cached int       `json:"cached,omitempty"`
}

// DecodeResult unmarshals the study's StudyResult artifact (Status
// must be "done"). Result holds the exact artifact bytes — a client
// that wants byte-level determinism should persist Result directly.
func (st *Study) DecodeResult() (*awakemis.StudyResult, error) {
	if st.Status != JobDone {
		return nil, fmt.Errorf("client: study %s is %s, not done", st.ID, st.Status)
	}
	var res awakemis.StudyResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		return nil, fmt.Errorf("client: decoding result of study %s: %w", st.ID, err)
	}
	return &res, nil
}

// SubmitStudy posts one StudySpec; the study expands and aggregates
// asynchronously (poll WaitStudy). Queue-full rejections are retried
// with backoff (see MaxRetries). The study runs under the ctx's trace
// id, minting one if absent; every sub-job inherits it.
func (c *Client) SubmitStudy(ctx context.Context, ss awakemis.StudySpec) (*Study, error) {
	ctx, _ = traceid.Ensure(ctx)
	var study Study
	if err := c.submitBackoff(ctx, "/v1/studies", ss, &study); err != nil {
		return nil, err
	}
	return &study, nil
}

// Study fetches a study's current state.
func (c *Client) Study(ctx context.Context, id string) (*Study, error) {
	var study Study
	if err := c.do(ctx, http.MethodGet, "/v1/studies/"+id, nil, &study); err != nil {
		return nil, err
	}
	return &study, nil
}

// CancelStudy asks the server to cancel the study: unfinished
// sub-runs are canceled and no artifact is produced.
func (c *Client) CancelStudy(ctx context.Context, id string) (*Study, error) {
	var study Study
	if err := c.do(ctx, http.MethodDelete, "/v1/studies/"+id, nil, &study); err != nil {
		return nil, err
	}
	return &study, nil
}

// WaitStudy follows the study to a terminal state, preferring the
// server's SSE event stream (GET /v1/studies/{id}/events) — every
// progress change arrives as it happens — and transparently falling
// back to polling against daemons without the stream. onPoll, when
// non-nil, receives every observed state — the CLI uses it for
// progress lines.
func (c *Client) WaitStudy(ctx context.Context, id string, onPoll func(*Study)) (*Study, error) {
	terminal := func(s *Study) bool { return s.Status.Terminal() }
	study, err := streamSSE(ctx, c, "/v1/studies/"+id+"/events", terminal, onPoll)
	if err == nil {
		return study, nil
	}
	if ctx.Err() != nil {
		return study, ctx.Err()
	}
	// The stream failed mid-flight or isn't served (older daemon,
	// buffering proxy): fall back to polling.
	return poll(ctx, c,
		func(ctx context.Context) (*Study, error) { return c.Study(ctx, id) },
		terminal, onPoll)
}

// RunStudy submits the study and waits for its artifact: the remote
// equivalent of awakemis.RunStudy. A failed or canceled study is an
// error.
func (c *Client) RunStudy(ctx context.Context, ss awakemis.StudySpec) (*awakemis.StudyResult, error) {
	study, err := c.SubmitStudy(ctx, ss)
	if err != nil {
		return nil, err
	}
	if !study.Status.Terminal() {
		if study, err = c.WaitStudy(ctx, study.ID, nil); err != nil {
			return nil, err
		}
	}
	switch study.Status {
	case JobDone:
		return study.DecodeResult()
	case JobFailed:
		return nil, fmt.Errorf("awakemisd: study %s failed: %s", study.ID, study.Error)
	default:
		return nil, fmt.Errorf("awakemisd: study %s was %s", study.ID, study.Status)
	}
}

// Tasks lists the server's task registry.
func (c *Client) Tasks(ctx context.Context) ([]TaskInfo, error) {
	var infos []TaskInfo
	if err := c.do(ctx, http.MethodGet, "/v1/tasks", nil, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Studies lists every study the server remembers, newest first, with
// live progress attached but Result bodies stripped (fetch one study
// by id for its artifact).
func (c *Client) Studies(ctx context.Context) ([]Study, error) {
	var studies []Study
	if err := c.do(ctx, http.MethodGet, "/v1/studies", nil, &studies); err != nil {
		return nil, err
	}
	return studies, nil
}

// Stats fetches the server's counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var st Stats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// ClusterPeerStats is one peer's row in the /v1/cluster/stats
// payload.
type ClusterPeerStats struct {
	Addr string `json:"addr"`
	// Up reports whether the stats fetch succeeded — a live liveness
	// signal, not the prober's cached opinion.
	Up    bool   `json:"up"`
	Error string `json:"error,omitempty"`
	Stats *Stats `json:"stats,omitempty"`
}

// ClusterStatsView is the /v1/cluster/stats payload: the serving
// front's own snapshot, every peer's snapshot (fetched concurrently
// with bounded timeouts), and the merged fleet total — queue depth,
// inflight, cache/store counters, and engine runs summed across self
// plus every reachable peer. Hit *rates* are intentionally absent:
// they derive from the summed hits/misses, and shipping both invites
// disagreement.
type ClusterStatsView struct {
	Self       Stats              `json:"self"`
	Peers      []ClusterPeerStats `json:"peers"`
	Total      Stats              `json:"total"`
	PeersUp    int                `json:"peers_up"`
	PeersTotal int                `json:"peers_total"`
}

// ClusterStats fetches the fleet-wide aggregate a cluster front
// serves. Daemons not fronting a cluster answer 404.
func (c *Client) ClusterStats(ctx context.Context) (*ClusterStatsView, error) {
	var cs ClusterStatsView
	if err := c.do(ctx, http.MethodGet, "/v1/cluster/stats", nil, &cs); err != nil {
		return nil, err
	}
	return &cs, nil
}

// Health checks /v1/healthz and returns the daemon's build identity.
// A draining or unreachable server is an error (with a nil Health).
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h); err != nil {
		return nil, err
	}
	if h.Status != "ok" {
		return nil, errors.New("awakemisd: health status " + h.Status)
	}
	return &h, nil
}
