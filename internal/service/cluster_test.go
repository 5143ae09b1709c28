// End-to-end tests of cluster mode: a front daemon sharding a study
// across two worker daemons produces the byte-identical artifact of
// direct execution; a full restart of every process serves the
// re-submitted study entirely from the persistent stores (zero engine
// runs anywhere); a dead peer's keys reroute to its ring successor;
// and a panicking job fails once, on one peer, without rerouting.
package service_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"awakemis"
	"awakemis/client"
	"awakemis/internal/cluster"
	"awakemis/internal/service"
	"awakemis/internal/store"
)

// daemon is one restartable awakemisd-shaped process: a Server over
// real HTTP, optionally store-backed, optionally a cluster front.
type daemon struct {
	srv   *service.Server
	ts    *httptest.Server
	c     *client.Client
	front *cluster.Front
}

// startDaemon boots a daemon the way cmd/awakemisd wires one: open
// store (caller-owned, reopened across "restarts"), optional front.
func startDaemon(t *testing.T, cfg service.Config, peers []string) *daemon {
	t.Helper()
	d := &daemon{}
	if len(peers) > 0 {
		front, err := cluster.New(peers, cluster.Options{HealthInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Forward = front
		d.front = front
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	d.srv = service.New(cfg)
	d.ts = httptest.NewServer(d.srv.Handler())
	d.c = client.New(d.ts.URL, d.ts.Client())
	d.c.PollInterval = 5 * time.Millisecond
	return d
}

// stop shuts the daemon down the way SIGTERM does: drain, close
// front, close listener. The store is left to the caller — reopening
// it is the restart under test.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d.front != nil {
		d.front.Close()
	}
	d.ts.Close()
}

// clusterStudy is a small grid (2 tasks x 2 sizes x 2 trials = 8
// sub-runs) — enough to exercise sharding without slowing the suite.
func clusterStudy() awakemis.StudySpec {
	return awakemis.StudySpec{
		Name:    "cluster-e2e",
		Tasks:   []string{"awake-mis", "vt-mis"},
		Sizes:   []int{64, 256},
		Trials:  2,
		Seed:    7,
		Options: awakemis.Options{Strict: true},
	}
}

// runStudyJSON submits the study through the client and returns the
// canonical rendering of the daemon's artifact.
func runStudyJSON(t *testing.T, c *client.Client, spec awakemis.StudySpec) []byte {
	t.Helper()
	ctx := context.Background()
	study, err := c.RunStudy(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := study.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestClusterStudyIdentityAndRestart is the tentpole acceptance test:
// a 2-worker cluster serves a study byte-identical to direct local
// execution; after a full restart of every process (stores reopened
// from disk), the re-submitted study costs zero engine runs on every
// daemon and zero forwards on the front, and the artifact is still
// byte-identical.
func TestClusterStudyIdentityAndRestart(t *testing.T) {
	ctx := context.Background()
	spec := clusterStudy()
	nSpecs := len(spec.Specs())

	local, err := (&awakemis.StudyRunner{}).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	localJSON, err := local.JSON()
	if err != nil {
		t.Fatal(err)
	}

	w1Dir, w2Dir, fDir := t.TempDir(), t.TempDir(), t.TempDir()
	openStore := func(dir string) *store.Store {
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// First boot: two workers, one front sharding across them.
	w1 := startDaemon(t, service.Config{Store: openStore(w1Dir)}, nil)
	w2 := startDaemon(t, service.Config{Store: openStore(w2Dir)}, nil)
	front := startDaemon(t, service.Config{Store: openStore(fDir)}, []string{w1.ts.URL, w2.ts.URL})

	clusterJSON := runStudyJSON(t, front.c, spec)
	if !bytes.Equal(clusterJSON, localJSON) {
		t.Fatalf("cluster artifact differs from direct execution:\ncluster: %.300s\nlocal:   %.300s", clusterJSON, localJSON)
	}

	fs, err := front.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fs.EngineRuns != 0 {
		t.Errorf("front engine_runs = %d, want 0 (fronts own no engines)", fs.EngineRuns)
	}
	if fs.Forwarded != int64(nSpecs) {
		t.Errorf("forwarded = %d, want %d", fs.Forwarded, nSpecs)
	}
	var peerSum int64
	for _, n := range fs.PeerForwards {
		peerSum += n
	}
	if peerSum != int64(nSpecs) {
		t.Errorf("peer_forwards sum = %d (%v), want %d", peerSum, fs.PeerForwards, nSpecs)
	}
	if fs.PeersHealthy != 2 || fs.PeersTotal != 2 {
		t.Errorf("peers = %d/%d healthy, want 2/2", fs.PeersHealthy, fs.PeersTotal)
	}
	s1, err := w1.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := w2.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s1.EngineRuns+s2.EngineRuns != int64(nSpecs) {
		t.Errorf("worker engine_runs = %d + %d, want %d total", s1.EngineRuns, s2.EngineRuns, nSpecs)
	}
	// The sharding split depends on the test servers' random ports, so
	// only the total is deterministic: every sub-run persisted exactly
	// once, on the worker that ran it.
	if s1.StoreEntries+s2.StoreEntries != int64(nSpecs) {
		t.Errorf("store entries = %d + %d, want %d total across workers", s1.StoreEntries, s2.StoreEntries, nSpecs)
	}

	// Remember which worker owned one concrete sub-run, to probe its
	// store directly after restart.
	firstBootRing := cluster.NewRing([]string{w1.ts.URL, w2.ts.URL}, 0)
	probe := spec.Specs()[0]
	probeHash, err := service.Hash(probe)
	if err != nil {
		t.Fatal(err)
	}
	probeOwnedByW1 := firstBootRing.Owner(probeHash) == w1.ts.URL

	// Full restart: stop every process, reopen every store from disk.
	front.stop(t)
	w1.stop(t)
	w2.stop(t)

	w1 = startDaemon(t, service.Config{Store: openStore(w1Dir)}, nil)
	w2 = startDaemon(t, service.Config{Store: openStore(w2Dir)}, nil)
	front = startDaemon(t, service.Config{Store: openStore(fDir)}, []string{w1.ts.URL, w2.ts.URL})
	defer front.stop(t)
	defer w2.stop(t)
	defer w1.stop(t)

	againJSON := runStudyJSON(t, front.c, spec)
	if !bytes.Equal(againJSON, localJSON) {
		t.Error("post-restart artifact differs from direct execution")
	}
	fs, err = front.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fs.EngineRuns != 0 || fs.Forwarded != 0 {
		t.Errorf("post-restart front: engine_runs=%d forwarded=%d, want 0/0 (all served from its store)", fs.EngineRuns, fs.Forwarded)
	}
	if fs.StoreHits < int64(nSpecs) {
		t.Errorf("post-restart front store_hits = %d, want >= %d", fs.StoreHits, nSpecs)
	}

	// The worker that owned the probe spec serves it from its reopened
	// store too: zero engine runs even when addressed directly.
	owner := w1
	if !probeOwnedByW1 {
		owner = w2
	}
	if _, err := owner.c.Run(ctx, probe); err != nil {
		t.Fatal(err)
	}
	ws, err := owner.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ws.EngineRuns != 0 {
		t.Errorf("post-restart worker engine_runs = %d, want 0 (probe should hit the reopened store)", ws.EngineRuns)
	}
	if ws.StoreHits == 0 {
		t.Error("post-restart worker store_hits = 0, want the probe to be a disk hit")
	}
}

// TestClusterReroutesAroundDeadPeer: a spec owned by an unreachable
// peer lands on the ring successor instead, the job still succeeds,
// and the dead peer is marked unhealthy.
func TestClusterReroutesAroundDeadPeer(t *testing.T) {
	ctx := context.Background()
	w := startDaemon(t, service.Config{}, nil)
	defer w.stop(t)
	// Port 1 refuses connections immediately; probing is disabled in
	// startDaemon, so the front starts out believing the peer is fine.
	dead := "http://127.0.0.1:1"
	front := startDaemon(t, service.Config{}, []string{w.ts.URL, dead})
	defer front.stop(t)

	// Find a spec the dead peer owns, so the reroute path is what runs.
	ring := cluster.NewRing([]string{w.ts.URL, dead}, 0)
	spec := targetSpec()
	for seed := int64(1); ; seed++ {
		spec.Options.Seed = seed
		h, err := service.Hash(spec)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(h) == dead {
			break
		}
	}

	if _, err := front.c.Run(ctx, spec); err != nil {
		t.Fatalf("run via front with dead owner: %v", err)
	}

	fs, err := front.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Forwarded != 1 {
		t.Errorf("forwarded = %d, want 1", fs.Forwarded)
	}
	if fs.PeerForwards[dead] != 0 {
		t.Errorf("dead peer credited with %d forwards", fs.PeerForwards[dead])
	}
	if fs.PeersHealthy != 1 {
		t.Errorf("peers_healthy = %d, want 1 (the failed forward marks the dead peer down)", fs.PeersHealthy)
	}
	if fs.EngineRuns != 0 {
		t.Errorf("front engine_runs = %d, want 0", fs.EngineRuns)
	}
}

// TestClusterPanickingJobFailsOnce: a valid spec whose run panics on
// the worker (panicForwarder stands in for the panic) must fail on the
// one peer that ran it, as a permanent failure: the front neither
// reroutes it to the other peer nor marks the first one down, and its
// job error names the spec hash.
func TestClusterPanickingJobFailsOnce(t *testing.T) {
	ctx := context.Background()
	w1 := startDaemon(t, service.Config{Forward: panicForwarder{}}, nil)
	defer w1.stop(t)
	w2 := startDaemon(t, service.Config{Forward: panicForwarder{}}, nil)
	defer w2.stop(t)
	front := startDaemon(t, service.Config{}, []string{w1.ts.URL, w2.ts.URL})
	defer front.stop(t)

	spec := awakemis.Spec{Task: "luby", Graph: awakemis.GraphSpec{Family: "cycle", N: 64}}
	hash, err := service.Hash(spec)
	if err != nil {
		t.Fatal(err)
	}

	job, err := front.c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	job, err = front.c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != client.JobFailed {
		t.Fatalf("front job status = %s, want %s", job.Status, client.JobFailed)
	}
	if !strings.Contains(job.Error, hash) || !strings.Contains(job.Error, "panicked") {
		t.Errorf("front job error %q does not report a panic naming the spec hash %s", job.Error, hash)
	}

	var submitted, failed []int64
	for _, w := range []*daemon{w1, w2} {
		st, err := w.c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		submitted = append(submitted, st.JobsSubmitted)
		failed = append(failed, st.JobsFailed)
	}
	if submitted[0]+submitted[1] != 1 || failed[0]+failed[1] != 1 || submitted[0] != failed[0] {
		t.Errorf("workers saw jobs_submitted %v, jobs_failed %v; want exactly one worker at 1/1 and the other at 0/0",
			submitted, failed)
	}
	fs, err := front.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fs.PeersHealthy != 2 {
		t.Errorf("peers_healthy = %d, want 2 (a failed job is not a dead peer)", fs.PeersHealthy)
	}
}
