package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

func hashOf(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("spec-%d", i)))
	return hex.EncodeToString(sum[:])
}

// TestRingDeterministicAcrossPeerOrder: every front in a fleet must
// route alike, however its -peers flag happened to be ordered.
func TestRingDeterministicAcrossPeerOrder(t *testing.T) {
	a := NewRing([]string{"http://a:1", "http://b:1", "http://c:1"}, 0)
	b := NewRing([]string{"http://c:1", "http://a:1", "http://b:1", "http://a:1"}, 0)
	for i := range 200 {
		h := hashOf(i)
		if a.Owner(h) != b.Owner(h) {
			t.Fatalf("hash %s: owners diverge: %s vs %s", h[:8], a.Owner(h), b.Owner(h))
		}
	}
}

// TestRingOrderCoversAllPeersOnce: Order is the reroute walk — it
// must visit every peer exactly once, starting at the owner.
func TestRingOrderCoversAllPeersOnce(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r := NewRing(peers, 0)
	for i := range 50 {
		h := hashOf(i)
		order := r.Order(h)
		if len(order) != len(peers) {
			t.Fatalf("hash %s: order %v has %d peers, want %d", h[:8], order, len(order), len(peers))
		}
		if order[0] != r.Owner(h) {
			t.Errorf("hash %s: order starts at %s, owner is %s", h[:8], order[0], r.Owner(h))
		}
		seen := map[string]bool{}
		for _, p := range order {
			if seen[p] {
				t.Fatalf("hash %s: order %v repeats %s", h[:8], order, p)
			}
			seen[p] = true
		}
	}
}

// TestRingBalance: with 64 vnodes per peer no peer should own a
// wildly disproportionate share of the key space.
func TestRingBalance(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := NewRing(peers, 0)
	counts := map[string]int{}
	const n = 3000
	for i := range n {
		counts[r.Owner(hashOf(i))]++
	}
	for _, p := range peers {
		share := float64(counts[p]) / n
		if share < 0.15 || share > 0.55 {
			t.Errorf("peer %s owns %.0f%% of keys, expected roughly a third (%v)", p, share*100, counts)
		}
	}
}

// TestRingBalanceNearbyAddresses: peers whose addresses differ in one
// character — the usual shape of a fleet — must still split uniform
// keys evenly: 40–60% each for two peers, at least 20% each for three.
func TestRingBalanceNearbyAddresses(t *testing.T) {
	const keys = 20_000
	for _, tc := range []struct {
		peers    []string
		min, max float64
	}{
		{[]string{"10.0.0.1:7600", "10.0.0.2:7600"}, 0.40, 0.60},
		{[]string{"http://127.0.0.1:47611", "http://127.0.0.1:47612"}, 0.40, 0.60},
		{[]string{"10.0.0.1:7600", "10.0.0.2:7600", "10.0.0.3:7600"}, 0.20, 1},
	} {
		r := NewRing(tc.peers, 0)
		counts := map[string]int{}
		for i := range keys {
			counts[r.Owner(hashOf(i))]++
		}
		for _, p := range tc.peers {
			if share := float64(counts[p]) / keys; share < tc.min || share > tc.max {
				t.Errorf("%v: peer %s owns %.1f%% of keys, want %.0f–%.0f%%", tc.peers, p, share*100, tc.min*100, tc.max*100)
			}
		}
	}
}

// TestRingStabilityUnderPeerLoss: removing one peer of three must not
// reshuffle keys between the survivors — only the dead peer's keys
// move. That is the property that keeps worker stores warm through
// membership changes.
func TestRingStabilityUnderPeerLoss(t *testing.T) {
	full := NewRing([]string{"http://a:1", "http://b:1", "http://c:1"}, 0)
	reduced := NewRing([]string{"http://a:1", "http://b:1"}, 0)
	for i := range 500 {
		h := hashOf(i)
		before := full.Owner(h)
		if before == "http://c:1" {
			continue // orphaned keys may land anywhere
		}
		if after := reduced.Owner(h); after != before {
			t.Fatalf("hash %s moved %s -> %s though its owner survived", h[:8], before, after)
		}
	}
}

// TestFrontNormalizesAddresses: bare host:port gains http://, trailing
// slashes and blanks are dropped, and an empty list is an error.
func TestFrontNormalizesAddresses(t *testing.T) {
	f, err := New([]string{" 127.0.0.1:7700 ", "http://127.0.0.1:7701/", ""}, Options{HealthInterval: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	want := []string{"http://127.0.0.1:7700", "http://127.0.0.1:7701"}
	got := f.ring.Peers()
	if len(got) != len(want) {
		t.Fatalf("peers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("peer[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	health := f.PeerHealth()
	for _, p := range want {
		if !health[p] {
			t.Errorf("peer %s not optimistically healthy at start", p)
		}
	}

	if _, err := New([]string{"", "  "}, Options{}); err == nil {
		t.Error("New with no usable peers: want error")
	}
}
