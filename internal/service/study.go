package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"awakemis"
)

// Study is the wire view of one submitted study: a declarative
// parameter-sweep grid whose cells execute as ordinary jobs through
// the server's cache and singleflight — so a re-submitted study costs
// zero simulations — and whose Reports aggregate server-side into a
// StudyResult artifact.
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

// studyRun is a Study plus the server-side execution state.
type studyRun struct {
	Study
	// traceID is the submitter's trace id; every sub-job inherits it,
	// so one grep finds the whole grid across the cluster.
	traceID string
	// jobs are the submitted sub-jobs in spec order (guarded by
	// Server.mu; grows during the submission phase).
	jobs []*job
	// cells is the resolved grid's cell list, fixed at submission:
	// sub-job i belongs to cells[i/Trials], the invariant the per-cell
	// progress derivation leans on.
	cells []awakemis.StudyCell
	// started anchors the progress clock (and the ETA extrapolation).
	started time.Time
	// final is the progress view frozen at the terminal transition
	// (the sub-job references are released there); nil while live.
	final *StudyProgress
	// done closes when the study reaches a terminal state — the
	// completion signal the SSE event stream selects on.
	done chan struct{}
	// ctx is canceled when the study is canceled, the server force
	// stops, or the executor exits; the submission loop's backpressure
	// wait selects on it.
	ctx    context.Context
	cancel context.CancelFunc
}

// backpressureRetry paces study submission when the job queue is
// full: rather than failing the whole grid, the executor waits for
// capacity and retries.
const backpressureRetry = 10 * time.Millisecond

// SubmitStudy validates and starts a study, returning its initial
// wire view. Expansion and execution happen asynchronously: poll
// LookupStudy (GET /v1/studies/{id}) until terminal. Errors wrap
// ErrInvalidSpec for malformed studies and ErrUnavailable while
// draining.
func (s *Server) SubmitStudy(ss awakemis.StudySpec) (Study, error) {
	return s.SubmitStudyTraced(ss, "")
}

// SubmitStudyTraced is SubmitStudy carrying the submitter's trace id:
// every sub-job of the grid records and runs under it.
func (s *Server) SubmitStudyTraced(ss awakemis.StudySpec, traceID string) (Study, error) {
	acc, err := ss.Accumulator()
	if err != nil {
		return Study{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return Study{}, fmt.Errorf("%w: server is draining", ErrUnavailable)
	}
	s.studySeq++
	ctx, cancel := context.WithCancel(s.baseCtx)
	st := &studyRun{
		Study: Study{
			ID:     fmt.Sprintf("s-%06d", s.studySeq),
			Status: JobQueued,
			Spec:   acc.Study(),
			Total:  acc.Total(),
		},
		traceID: traceID,
		cells:   acc.Study().Cells(),
		started: time.Now(),
		done:    make(chan struct{}),
		ctx:     ctx,
		cancel:  cancel,
	}
	s.studies[st.ID] = st
	s.stats.StudiesSubmitted++
	s.wg.Add(1) // Shutdown waits for study executors like workers
	go s.runStudy(st, acc)
	return st.Study, nil
}

// LookupStudy returns the study's current wire view, with the live
// (or, once terminal, frozen) per-cell progress attached.
func (s *Server) LookupStudy(id string) (Study, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.studies[id]
	if !ok {
		return Study{}, false
	}
	wire := st.Study
	wire.Progress = s.studyProgressLocked(st)
	return wire, true
}

// ListStudies returns every queryable study newest-first, Results
// stripped (an artifact can run to megabytes; fetch it by id). The
// dashboard's study panel reads this.
func (s *Server) ListStudies() []Study {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Study, 0, len(s.studies))
	for _, st := range s.studies {
		wire := st.Study
		wire.Result = nil
		wire.Progress = s.studyProgressLocked(st)
		out = append(out, wire)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// CancelStudy cancels a study: unfinished sub-jobs are canceled (a
// sub-run shared with another submitter keeps running for them — the
// usual last-waiter rule), submission stops, and no artifact is
// produced. Canceling a finished study returns ErrConflict.
func (s *Server) CancelStudy(id string) (Study, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.studies[id]
	if !ok {
		return Study{}, fmt.Errorf("%w: no study %s", ErrNotFound, id)
	}
	if st.Status.terminal() {
		return st.Study, fmt.Errorf("%w: study %s already %s", ErrConflict, id, st.Status)
	}
	st.Status = JobCanceled
	s.stats.StudiesCanceled++
	for _, j := range st.jobs {
		if !j.Status.terminal() {
			s.cancelLocked(j)
		}
	}
	s.finishStudyLocked(st)
	st.cancel()
	return st.Study, nil
}

// runStudy is the study executor: submit every expanded spec through
// the ordinary job path (cache hits and in-flight duplicates resolve
// instantly; new work queues behind the bounded queue with
// backpressure), wait for the sub-jobs in spec order, stream their
// Reports into the public accumulator, and publish the artifact.
func (s *Server) runStudy(st *studyRun, acc *awakemis.StudyAccumulator) {
	defer s.wg.Done()
	defer st.cancel()
	specs := acc.Specs()
	s.mu.Lock()
	if st.Status == JobQueued {
		st.Status = JobRunning
	}
	s.mu.Unlock()

	// Submission phase. Consecutive Trials specs form one cell whose
	// lanes share a graph; the fresh still-queued lanes of each cell are
	// tied into a vectorGroup so the first worker to reach any of them
	// executes the cell as one merged vectorized run. Cache hits,
	// coalesced duplicates, and forwarded (cluster-front) flights stay on
	// their usual paths.
	trials := st.Spec.Trials
	if trials < 1 {
		trials = 1
	}
	var cellNew []*flight
	for _, spec := range specs {
		canonical := Canonicalize(spec)
		hash, err := hashCanonical(canonical)
		if err != nil {
			s.failStudy(st, err)
			return
		}
		for {
			s.mu.Lock()
			if st.Status.terminal() {
				s.mu.Unlock()
				return // canceled while submitting; CancelStudy cleaned up
			}
			j, err := s.submitLocked(canonical, hash, st.traceID)
			if err == nil {
				st.jobs = append(st.jobs, j)
				// A lane is groupable only when this submission created its
				// flight (a coalesced or cached lane already has an owner)
				// and the spec is one the vectorized engine accepts.
				if s.fwd == nil && trials >= 2 &&
					canonical.Options.Engine == awakemis.EngineStepped &&
					canonical.Graph.Seed != 0 &&
					j.flight != nil && j.flight.state == JobQueued &&
					len(j.flight.jobs) == 1 && j.flight.jobs[0] == j {
					cellNew = append(cellNew, j.flight)
				}
				if len(st.jobs)%trials == 0 {
					s.groupCellLocked(cellNew)
					cellNew = cellNew[:0]
				}
			}
			draining := s.draining
			s.mu.Unlock()
			if err == nil {
				break
			}
			if !errors.Is(err, ErrUnavailable) || draining {
				s.failStudy(st, fmt.Errorf("submitting %s: %w", spec.Name, err))
				return
			}
			// Queue full: wait for capacity, then retry.
			select {
			case <-st.ctx.Done():
				s.failStudy(st, fmt.Errorf("submitting %s: %w", spec.Name, st.ctx.Err()))
				return
			case <-time.After(backpressureRetry):
			}
		}
	}

	// Aggregation phase: wait in spec order (completion order doesn't
	// matter — the accumulator is order-independent by construction).
	for i := range specs {
		s.mu.Lock()
		if st.Status.terminal() { // canceled: st.jobs already released
			s.mu.Unlock()
			return
		}
		j := st.jobs[i]
		s.mu.Unlock()
		<-j.done
		s.mu.Lock()
		jj := j.Job
		if !st.Status.terminal() {
			st.Done++
		}
		canceled := st.Status.terminal()
		s.mu.Unlock()
		if canceled {
			return
		}
		if jj.Status != JobDone {
			s.failStudy(st, fmt.Errorf("sub-run %s (%s) ended %s: %s", jj.ID, specs[i].Name, jj.Status, jj.Error))
			return
		}
		var rep awakemis.Report
		if err := json.Unmarshal(jj.Report, &rep); err != nil {
			s.failStudy(st, fmt.Errorf("decoding report of sub-run %s: %w", jj.ID, err))
			return
		}
		if err := acc.Add(i, &rep); err != nil {
			s.failStudy(st, err)
			return
		}
	}

	result, err := acc.Result()
	if err != nil {
		s.failStudy(st, err)
		return
	}
	data, err := result.JSON()
	if err != nil {
		s.failStudy(st, err)
		return
	}
	s.mu.Lock()
	if !st.Status.terminal() {
		st.Status = JobDone
		st.Result = data
		s.stats.StudiesCompleted++
		s.finishStudyLocked(st)
	}
	s.mu.Unlock()
}

// groupCellLocked ties the still-queued fresh flights of one study
// cell into a vectorGroup so the first worker to reach any of them
// drives the rest as one merged vectorized run. Lanes a worker already
// picked up (or the last waiter abandoned) stay out, and a cell with
// fewer than two groupable lanes is left to one-lane passes. Callers
// hold s.mu.
func (s *Server) groupCellLocked(cell []*flight) {
	lanes := make([]*flight, 0, len(cell))
	for _, f := range cell {
		if f.state == JobQueued && f.group == nil && f.live > 0 {
			lanes = append(lanes, f)
		}
	}
	if len(lanes) < 2 {
		return
	}
	g := &vectorGroup{flights: lanes}
	for _, f := range lanes {
		f.group = g
	}
}

// failStudy marks the study failed (unless already terminal) and
// cancels its unfinished sub-jobs.
func (s *Server) failStudy(st *studyRun, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.Status.terminal() {
		return
	}
	st.Status = JobFailed
	st.Error = err.Error()
	s.stats.StudiesFailed++
	for _, j := range st.jobs {
		if !j.Status.terminal() {
			s.cancelLocked(j)
		}
	}
	s.finishStudyLocked(st)
}

// finishStudyLocked records a study reaching a terminal state and
// enforces the finished-study history cap. The progress view is
// frozen first (it needs the sub-jobs), then the sub-job references
// are released so a finished study pins no Report bytes beyond the
// job history and cache budgets (the executor guards its st.jobs
// reads with a terminal check). Callers hold s.mu.
func (s *Server) finishStudyLocked(st *studyRun) {
	s.finalizeStudyProgressLocked(st)
	close(st.done)
	st.jobs = nil
	s.studyDone = append(s.studyDone, st.ID)
	for len(s.studyDone) > s.cfg.JobHistory {
		delete(s.studies, s.studyDone[0])
		s.studyDone = s.studyDone[1:]
	}
}
