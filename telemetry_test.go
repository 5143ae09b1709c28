package awakemis_test

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"awakemis"
)

// statLog collects the public RoundStats a run emits.
type statLog struct {
	stats []awakemis.RoundStat
}

func (l *statLog) ObserveRound(st awakemis.RoundStat) { l.stats = append(l.stats, st) }

// telemetrySpec is a run long enough to exercise bucket merging: the
// naive-greedy schedule executes a few hundred rounds on a cycle.
func telemetrySpec() awakemis.Spec {
	return awakemis.Spec{
		Name:    "telemetry",
		Task:    "naive-greedy",
		Graph:   awakemis.GraphSpec{Family: "cycle", N: 192},
		Options: awakemis.Options{Seed: 17, RoundSummary: true},
	}
}

// TestRoundSummaryAcrossEnginesAndWorkers pins the determinism of the
// report's round-summary block: byte-identical report JSON (modulo
// wall time) at workers 1/4, with internally consistent totals.
func TestRoundSummaryAcrossEnginesAndWorkers(t *testing.T) {
	var refJSON []byte
	var refName string
	for _, tc := range []struct {
		name    string
		run     func(awakemis.Spec) (*awakemis.Report, error)
		workers int
	}{
		{"stepped-1", runPlain, 1},
		{"stepped-4", runPlain, 4},
	} {
		spec := telemetrySpec()
		spec.Options.Workers = tc.workers
		rep, err := tc.run(spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rs := rep.RoundSummary
		if rs == nil {
			t.Fatalf("%s: Options.RoundSummary produced no block", tc.name)
		}
		if rs.Executed != rep.Metrics.ExecutedRounds {
			t.Errorf("%s: summary executed %d, metrics %d", tc.name, rs.Executed, rep.Metrics.ExecutedRounds)
		}
		var executed, sent, bits int64
		for i, b := range rs.Buckets {
			executed += b.Executed
			sent += b.Sent
			bits += b.Bits
			if i > 0 && b.FromRound <= rs.Buckets[i-1].ToRound {
				t.Errorf("%s: bucket %d rounds overlap: %+v after %+v", tc.name, i, b, rs.Buckets[i-1])
			}
		}
		if len(rs.Buckets) == 0 || len(rs.Buckets) > 64 {
			t.Errorf("%s: %d buckets, want 1..64", tc.name, len(rs.Buckets))
		}
		if executed != rs.Executed {
			t.Errorf("%s: buckets sum to %d executed rounds, summary says %d", tc.name, executed, rs.Executed)
		}
		if sent != rep.Metrics.MessagesSent || bits != rep.Metrics.BitsSent {
			t.Errorf("%s: bucket traffic %d msgs/%d bits, metrics %d/%d",
				tc.name, sent, bits, rep.Metrics.MessagesSent, rep.Metrics.BitsSent)
		}
		if last := rs.Buckets[len(rs.Buckets)-1]; last.ToRound+1 != rep.Metrics.Rounds {
			t.Errorf("%s: last bucket ends at round %d, metrics rounds %d", tc.name, last.ToRound, rep.Metrics.Rounds)
		}
		// Workers is recorded in the report (and wall time is
		// nondeterministic); neutralize them before the byte comparison.
		c := *rep
		c.WallMS = 0
		c.Workers = 0
		data, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		if refJSON == nil {
			refJSON, refName = data, tc.name
			continue
		}
		if string(refJSON) != string(data) {
			t.Errorf("round summary diverges:\n%s: %s\n%s: %s", refName, refJSON, tc.name, data)
		}
	}
}

// TestObserverTotalsMatchReport pins the facade-level observer
// identity: summing the streamed per-round stats reproduces the
// report's metrics.
func TestObserverTotalsMatchReport(t *testing.T) {
	spec := telemetrySpec()
	log := &statLog{}
	rep, err := awakemis.Run(context.Background(), spec, awakemis.WithObserver(log))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(log.stats)) != rep.Metrics.ExecutedRounds {
		t.Errorf("observed %d rounds, metrics executed %d", len(log.stats), rep.Metrics.ExecutedRounds)
	}
	var sent, bits int64
	for _, st := range log.stats {
		sent += st.Sent
		bits += st.Bits
	}
	if sent != rep.Metrics.MessagesSent || bits != rep.Metrics.BitsSent {
		t.Errorf("observer totals %d msgs/%d bits, metrics %d/%d",
			sent, bits, rep.Metrics.MessagesSent, rep.Metrics.BitsSent)
	}
	if last := log.stats[len(log.stats)-1]; last.Round+1 != rep.Metrics.Rounds {
		t.Errorf("last observed round %d, metrics rounds %d", last.Round, rep.Metrics.Rounds)
	}
}

// TestObserverLeavesReportUnchanged asserts the byte-identity contract
// with an observer attached: the report is bit-identical to a bare run.
func TestObserverLeavesReportUnchanged(t *testing.T) {
	spec := telemetrySpec()
	spec.Options.RoundSummary = false
	bare, err := awakemis.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := awakemis.Run(context.Background(), spec, awakemis.WithObserver(&statLog{}))
	if err != nil {
		t.Fatal(err)
	}
	a, b := *bare, *observed
	a.WallMS, b.WallMS = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("observer changed the report:\nbare:     %+v\nobserved: %+v", a, b)
	}
}

// runPlain is a plain one-lane Run of spec.
func runPlain(spec awakemis.Spec) (*awakemis.Report, error) {
	return awakemis.Run(context.Background(), spec)
}
