package service

import (
	"time"

	"awakemis/client"
)

// studyProgressLocked assembles the study's live progress view from
// its sub-jobs. Callers hold s.mu; the terminal view is frozen by
// finishStudyLocked, after which st.final is returned as-is (the
// sub-job references are released there).
func (s *Server) studyProgressLocked(st *studyRun) *client.StudyProgress {
	if st.final != nil {
		return st.final
	}
	trials := max(1, st.Spec.Trials)
	p := &client.StudyProgress{Cells: make([]client.StudyCellProgress, len(st.cells))}
	for i, c := range st.cells {
		cp := client.StudyCellProgress{
			Index: c.Index, Task: c.Task, Family: c.Family,
			N: c.N, Engine: string(c.Engine), Trials: trials,
		}
		var failed, canceled, running int
		lo := min(i*trials, len(st.jobs))
		hi := min(lo+trials, len(st.jobs))
		for _, j := range st.jobs[lo:hi] {
			switch j.Status {
			case client.JobDone:
				cp.Done++
				if j.Cached {
					cp.Cached++
				}
			case client.JobFailed:
				failed++
			case client.JobCanceled:
				canceled++
			case client.JobRunning:
				running++
			}
			if j.vectorized {
				p.LanesVectorized++
			}
			// Executed-round / engine-time attribution: finished jobs carry
			// their stamped totals, live ones are read off their flight's
			// tracker (shared with the engine goroutine; totals stamped at
			// finish come from the same tracker, so the sum is monotone).
			rounds, simNS := j.rounds, j.simNS
			if !j.Status.Terminal() && j.flight != nil && j.flight.tracker != nil {
				rounds, simNS = j.flight.tracker.progressTotals()
			}
			p.ExecutedRounds += rounds
			p.EngineSeconds += float64(simNS) / 1e9
		}
		switch {
		case failed > 0:
			cp.State = client.CellFailed
			p.CellsFailed++
		case canceled > 0:
			cp.State = client.CellCanceled
			p.CellsCanceled++
		case cp.Done == trials && cp.Cached == trials:
			cp.State = client.CellCached
			p.CellsCached++
		case cp.Done == trials:
			cp.State = client.CellDone
			p.CellsDone++
		case running > 0:
			cp.State = client.CellRunning
			p.CellsRunning++
		default:
			cp.State = client.CellQueued
			p.CellsQueued++
		}
		p.RunsDone += cp.Done
		p.RunsCached += cp.Cached
		p.Cells[i] = cp
	}
	p.ElapsedMS = float64(time.Since(st.started)) / float64(time.Millisecond)
	// Rate extrapolation: sub-runs completed so far set the pace for
	// the remainder. (Cells finish roughly geometrically under the
	// cache/vectorization mix, so this decays toward the truth as the
	// grid drains — good enough for a ticker, never for results.)
	if remaining := st.Total - p.RunsDone; p.RunsDone > 0 && remaining > 0 {
		p.ETAMS = p.ElapsedMS * float64(remaining) / float64(p.RunsDone)
	}
	return p
}

// finalizeStudyProgressLocked freezes the study's terminal progress
// view. Cells whose sub-jobs never reached a terminal report — the
// submission phase hadn't gotten to them, or their runs were canceled
// with the study — are folded into "canceled" so the frozen view
// accounts for every cell. Callers hold s.mu.
func (s *Server) finalizeStudyProgressLocked(st *studyRun) {
	p := s.studyProgressLocked(st)
	if st.final != nil {
		return
	}
	for i := range p.Cells {
		switch p.Cells[i].State {
		case client.CellQueued, client.CellRunning:
			p.Cells[i].State = client.CellCanceled
			p.CellsCanceled++
		}
	}
	p.CellsQueued, p.CellsRunning = 0, 0
	p.ETAMS = 0
	st.final = p
	if s.studyCells == nil {
		s.studyCells = map[string]int64{}
	}
	for _, c := range p.Cells {
		s.studyCells[string(c.State)]++
	}
}
