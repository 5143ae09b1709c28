package service

import (
	"math"
	"sync"
	"time"

	"awakemis"
	"awakemis/client"
)

// progressTracker is the per-flight awakemis.RoundObserver behind live
// job progress: the engine goroutine feeds it one flat RoundStat per
// round, HTTP handlers snapshot it concurrently. It doubles as the
// engine-telemetry source for /v1/stats and /metrics (rounds
// simulated, sim-seconds).
type progressTracker struct {
	n     int // graph size, for AwakeFrac (0 = unknown)
	start time.Time

	mu     sync.Mutex
	cur    client.JobProgress
	peak   int   // peak awake count, for the ETA extrapolation
	simNS  int64 // summed per-round engine time
	remote bool  // cur was relayed from a worker daemon (front mode)
}

func newProgressTracker(n int) *progressTracker {
	return &progressTracker{n: n, start: time.Now()}
}

// ObserveRound implements awakemis.RoundObserver. O(1) per round.
func (t *progressTracker) ObserveRound(st awakemis.RoundStat) {
	t.mu.Lock()
	t.cur.Rounds = st.Round + 1
	t.cur.Executed++
	t.cur.Awake = st.Awake
	if t.n > 0 {
		t.cur.AwakeFrac = float64(st.Awake) / float64(t.n)
	}
	if st.Awake > t.peak {
		t.peak = st.Awake
	}
	t.simNS += st.ElapsedNS
	t.mu.Unlock()
}

// setRemote replaces the tracked state with a progress view relayed
// from the worker daemon actually running the simulation (front mode).
func (t *progressTracker) setRemote(p client.JobProgress) {
	t.mu.Lock()
	t.cur = p
	t.remote = true
	t.mu.Unlock()
}

// snapshot returns the current progress view, or nil before the first
// round (or relayed update) lands.
func (t *progressTracker) snapshot() *client.JobProgress {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur.Executed == 0 && !t.remote {
		return nil
	}
	p := t.cur
	if !t.remote {
		p.ElapsedMS = float64(time.Since(t.start)) / float64(time.Millisecond)
		// awake(t) ≈ peak·r^t for some decay r<1, so the remaining
		// rounds-to-one scale like log(awake)/log(peak/awake) of the
		// elapsed ones. Only meaningful once decay is underway.
		if t.peak > 0 && p.Awake > 1 && p.Awake < t.peak {
			p.ETAMS = p.ElapsedMS * math.Log(float64(p.Awake)) / math.Log(float64(t.peak)/float64(p.Awake))
		}
	}
	return &p
}

// totals returns the engine-level telemetry accumulated so far:
// executed rounds and summed per-round engine time. Zero in front mode
// (the worker daemon that ran the engine reports them instead).
func (t *progressTracker) totals() (rounds, simNS int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.remote {
		return 0, 0
	}
	return t.cur.Executed, t.simNS
}

// progressTotals is totals for study-progress attribution: unlike the
// server-stats totals it keeps counting through a front — the relayed
// remote rounds are exactly what a study submitter wants aggregated —
// while engine time stays local-only (the wall clock of a remote run
// is not engine time).
func (t *progressTracker) progressTotals() (rounds, simNS int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.remote {
		return t.cur.Executed, 0
	}
	return t.cur.Executed, t.simNS
}
