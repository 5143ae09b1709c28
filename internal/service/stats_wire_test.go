// Wire-compatibility audit for the Stats JSON shape: every field
// added for stores and clusters is omitempty, so a plain daemon's
// /v1/stats document is byte-for-byte the pre-cluster shape — scripts
// doing `jq .engine_runs` (and the CI smoke jobs) never see a change.
package service

import (
	"encoding/json"
	"sort"
	"testing"

	"awakemis/client"
)

// legacyStatsKeys is the frozen pre-store/pre-cluster key set. A
// zero-valued Stats must marshal to exactly these keys, no more.
var legacyStatsKeys = []string{
	"cache_budget_bytes",
	"cache_bytes",
	"cache_entries",
	"cache_evictions",
	"cache_hits",
	"cache_misses",
	"coalesced",
	"draining",
	"engine_runs",
	"inflight",
	"jobs_canceled",
	"jobs_completed",
	"jobs_failed",
	"jobs_submitted",
	"queue_depth",
	"studies_canceled",
	"studies_completed",
	"studies_failed",
	"studies_submitted",
}

func marshalKeys(t *testing.T, s Stats) []string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestStatsZeroValueKeepsLegacyShape(t *testing.T) {
	got := marshalKeys(t, Stats{})
	if len(got) != len(legacyStatsKeys) {
		t.Fatalf("zero Stats marshals %d keys, want the %d legacy keys:\ngot:  %v\nwant: %v",
			len(got), len(legacyStatsKeys), got, legacyStatsKeys)
	}
	for i, k := range legacyStatsKeys {
		if got[i] != k {
			t.Errorf("key[%d] = %q, want %q", i, got[i], k)
		}
	}
}

// TestStudyZeroValueKeepsLegacyShape freezes the Study wire shape:
// every observability field (progress, result, error) is omitempty,
// so a minimal study document keeps the pre-progress key set and
// canonical artifact hashes stay unchanged.
func TestStudyZeroValueKeepsLegacyShape(t *testing.T) {
	data, err := json.Marshal(client.Study{})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"done", "id", "spec", "status", "total"}
	if len(got) != len(want) {
		t.Fatalf("zero Study marshals keys %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("key[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestStatsNewFieldsAppearWhenSet(t *testing.T) {
	s := Stats{
		StoreHits:      1,
		StoreMisses:    2,
		StoreEntries:   3,
		StoreBytes:     4,
		StoreBudget:    5,
		StoreEvictions: 6,
		StoreCorrupt:   7,
		StoreErrors:    8,
		Forwarded:      9,
		ForwardErrors:  10,
		PeerForwards:   map[string]int64{"http://w1": 9},
		PeersHealthy:   1,
		PeersTotal:     2,

		StudyCells: map[string]int64{"done": 4, "cached": 2},

		RoundsSimulated: 11,
		SimSeconds:      0.5,
		Version:         "v1.2.3",
		Revision:        "abc123",
		BuildTime:       "2026-01-01T00:00:00Z",
		GoVersion:       "go1.24",
	}
	want := map[string]bool{
		"store_hits": true, "store_misses": true, "store_entries": true,
		"store_bytes": true, "store_budget_bytes": true, "store_evictions": true,
		"store_corrupt": true, "store_errors": true,
		"forwarded": true, "forward_errors": true, "peer_forwards": true,
		"peers_healthy": true, "peers_total": true,
		"study_cells":      true,
		"rounds_simulated": true, "sim_seconds": true,
		"version": true, "revision": true, "build_time": true, "go_version": true,
	}
	got := marshalKeys(t, s)
	seen := map[string]bool{}
	for _, k := range got {
		seen[k] = true
	}
	for k := range want {
		if !seen[k] {
			t.Errorf("set field %q missing from marshal output %v", k, got)
		}
	}
	if len(got) != len(legacyStatsKeys)+len(want) {
		t.Errorf("full Stats marshals %d keys, want %d", len(got), len(legacyStatsKeys)+len(want))
	}
}
