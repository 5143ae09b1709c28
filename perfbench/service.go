package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"awakemis"
	"awakemis/client"
	"awakemis/internal/cluster"
	"awakemis/internal/service"
	"awakemis/internal/store"
)

const (
	serviceClients  = 2  // closed-loop clients: one per CPU of the reference host
	replayPerClient = 16 // completed specs each client replays against the restarted front
	minN, maxN      = 256, 4096
	// A hit repeats one of the client's last repeatWindow misses. The
	// daemons keep cacheBytes of reports and jobHistory finished jobs, so
	// those repeats always hit while the heap stops growing early in the
	// run.
	repeatWindow = 32
	// A front slot forwards a flight, then writes its report to the
	// store (gzip and fsync) before taking the next. Twice as many slots
	// as clients keep a slow disk write from delaying the next forward.
	frontSlots = 2 * serviceClients
	cacheBytes = 32 << 20
	jobHistory = 512
)

// repeatPattern is one block of a client's operations: false draws a
// fresh spec, true repeats one the client has completed. Each block is
// shuffled, so 40% of operations are hits on every seed.
var repeatPattern = []bool{false, false, false, true, true}

var (
	serviceTasks    = []string{string(awakemis.Luby), string(awakemis.VTMIS), string(awakemis.AwakeMIS)}
	serviceFamilies = []string{"gnp", "grid", "cycle", "regular"}
)

// node is one in-process daemon served over loopback HTTP.
type node struct {
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// workerPort is the first worker's loopback port. The cluster ring
// places peers by hashing their addresses, so fixed addresses give every
// run the same split of specs between the workers; a port in use falls
// back to any free one.
const workerPort = 47611

// startNode serves cfg on 127.0.0.1:port (0 for any free port).
func startNode(cfg service.Config, port int) (*node, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil && port != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: port %d busy (%v); using a free port\n", port, err)
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return nil, err
	}
	n := &node{srv: service.New(cfg), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	n.hs = &http.Server{Handler: n.srv.Handler()}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return n, nil
}

// stop drains the daemon, then closes its listener and waits for it.
func (n *node) stop() error {
	c, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.srv.Shutdown(c)
	if herr := n.hs.Shutdown(c); err == nil {
		err = herr
	}
	<-n.done
	return err
}

// front is the cluster front: a daemon with a memory cache and a disk
// store that forwards misses to the workers over its own connections,
// so no front reuses a connection to an earlier fleet's worker.
type front struct {
	*node
	cl *cluster.Front
	st *store.Store
	tr *http.Transport
}

func startFront(dir string, workers []*node) (*front, error) {
	st, err := store.Open(dir, -1)
	if err != nil {
		return nil, err
	}
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.url
	}
	tr := &http.Transport{}
	cl, err := cluster.New(urls, cluster.Options{HTTPClient: &http.Client{Transport: tr}})
	if err != nil {
		return nil, err
	}
	cl.Start()
	n, err := startNode(service.Config{Workers: frontSlots, Store: st, Forward: cl, CacheBytes: cacheBytes, JobHistory: jobHistory}, 0)
	if err != nil {
		cl.Close()
		return nil, err
	}
	return &front{node: n, cl: cl, st: st, tr: tr}, nil
}

func (f *front) stop() error {
	err := f.node.stop()
	f.cl.Close()
	f.tr.CloseIdleConnections()
	if serr := f.st.Close(); err == nil {
		err = serr
	}
	return err
}

// fleet is the whole in-process deployment.
type fleet struct {
	dir     string
	workers []*node
	front   *front
}

func startFleet(dir string) (*fleet, error) {
	fl := &fleet{dir: dir}
	for i := 0; i < 2; i++ {
		w, err := startNode(service.Config{Workers: 1, SimWorkers: 1, CacheBytes: cacheBytes, JobHistory: jobHistory}, workerPort+i)
		if err != nil {
			fl.stop()
			return nil, err
		}
		fl.workers = append(fl.workers, w)
	}
	var err error
	if fl.front, err = startFront(dir, fl.workers); err != nil {
		fl.stop()
		return nil, err
	}
	return fl, nil
}

func (fl *fleet) stop() error {
	var errs []error
	if fl.front != nil {
		errs = append(errs, fl.front.stop())
	}
	for _, w := range fl.workers {
		errs = append(errs, w.stop())
	}
	return errors.Join(errs...)
}

// svcOp is one client operation.
type svcOp struct {
	op    int
	class string // "miss", "hit" or "store-hit", from the seeded sequence
	spec  awakemis.Spec
	first int // for a hit: index of the miss that produced the spec
	// raw and zeroed are digests of the reply's report bytes, as sent
	// and with wall_ms zeroed.
	raw, zeroed string
	lat         float64
	submit      float64 // client.Submit seconds
	wait        float64 // client.WaitJob seconds (misses only)
	cached      bool
	traced      bool
}

// svcClient is one closed-loop client with its own seeded spec stream.
type svcClient struct {
	id      int
	rng     *rand.Rand
	seed    int64
	pattern []bool          // the rest of the current block of repeatPattern
	deck    []awakemis.Spec // the rest of the current block of fresh specs
	offset  []int           // each task-family pair's first size stratum
	blocks  int             // blocks of fresh specs drawn so far
	fresh   int             // fresh specs drawn so far
	misses  []int           // indexes into ops of this client's completed misses
	ops     []svcOp         // every operation, in order
}

// next draws the client's next spec: a repeat of one of its own
// completed specs, or a fresh small spec.
func (c *svcClient) next() svcOp {
	if len(c.pattern) == 0 {
		c.pattern = slices.Clone(repeatPattern)
		c.rng.Shuffle(len(c.pattern), func(i, j int) { c.pattern[i], c.pattern[j] = c.pattern[j], c.pattern[i] })
	}
	repeat := c.pattern[0]
	c.pattern = c.pattern[1:]
	if repeat && len(c.misses) > 0 {
		first := c.misses[max(0, len(c.misses)-repeatWindow)+c.rng.Intn(min(len(c.misses), repeatWindow))]
		return svcOp{class: "hit", spec: c.ops[first].spec, first: first}
	}
	if len(c.deck) == 0 {
		c.deck = c.freshBlock()
	}
	spec := c.deck[0]
	c.deck = c.deck[1:]
	return svcOp{class: "miss", first: -1, spec: spec}
}

// freshBlock draws the next block of fresh specs: every task on every
// family once, in seeded order. [minN, maxN] is cut into as many size
// strata as there are task-family pairs, and each pair steps through
// all strata over that many blocks from a seeded offset, so the work in
// a run hardly depends on the seed.
func (c *svcClient) freshBlock() []awakemis.Spec {
	k := len(serviceTasks) * len(serviceFamilies)
	if c.offset == nil {
		c.offset = c.rng.Perm(k)
	}
	block := make([]awakemis.Spec, 0, k)
	for _, i := range c.rng.Perm(k) {
		stratum := (c.offset[i] + c.blocks) % k
		lo := minN + stratum*(maxN-minN)/k
		hi := minN + (stratum+1)*(maxN-minN)/k
		c.fresh++
		block = append(block, awakemis.Spec{
			Task:    serviceTasks[i/len(serviceFamilies)],
			Graph:   awakemis.GraphSpec{Family: serviceFamilies[i%len(serviceFamilies)], N: lo + c.rng.Intn(hi-lo+1)},
			Options: awakemis.Options{Seed: awakemis.DeriveSeed(c.seed, fmt.Sprintf("perfbench/service/client%d", c.id), int64(c.fresh))},
		})
	}
	c.blocks++
	return block
}

// do submits one spec and follows it to its report bytes.
func (b *bench) do(ctx context.Context, cl *client.Client, o *svcOp, traced bool) error {
	tr := b.tr
	if !traced {
		tr = nil
	}
	o.traced = traced
	root := tr.open(o.op, 0, "spec")
	start := time.Now()
	job, err := cl.Submit(ctx, o.spec)
	subEnd := time.Now()
	tr.span(o.op, root, "client.submit", start, subEnd)
	o.submit = subEnd.Sub(start).Seconds()
	if err == nil && !job.Status.Terminal() {
		job, err = cl.WaitJob(ctx, job.ID, nil)
		waitEnd := time.Now()
		tr.span(o.op, root, "client.wait", subEnd, waitEnd)
		o.wait = waitEnd.Sub(subEnd).Seconds()
	}
	tr.close(root)
	o.lat = time.Since(start).Seconds()
	if err != nil {
		return err
	}
	if job.Status != client.JobDone {
		return fmt.Errorf("job %s ended %s: %s", job.ID, job.Status, job.Error)
	}
	z := zeroWall(job.Report)
	if z == nil {
		return fmt.Errorf("job %s: report has no single wall_ms field", job.ID)
	}
	o.raw, o.zeroed, o.cached = digest(job.Report), digest(z), job.Cached
	return nil
}

// serviceMix drives a front, a disk store and two workers over loopback
// HTTP with closed-loop clients, then replays completed specs against
// a restarted front for disk-store hits.
func (b *bench) serviceMix() error {
	ctx := context.Background()
	r := &b.res
	base, err := os.MkdirTemp(b.out+"/tmp", "service-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	// Set-up, setups times: start the workers, open the store, start the
	// front and warm each path with one run and one cache hit. The last
	// fleet serves the timed phase.
	var fl *fleet
	for i := 0; i < setups; i++ {
		if fl != nil {
			if err := fl.stop(); err != nil {
				return fmt.Errorf("stopping set-up fleet: %w", err)
			}
		}
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if fl, err = startFleet(fmt.Sprintf("%s/store%d", base, i)); err != nil {
			return err
		}
		c := client.New(fl.front.url, nil)
		for k, task := range serviceTasks {
			warm := awakemis.Spec{Task: task, Graph: awakemis.GraphSpec{Family: "cycle", N: 512}, Options: awakemis.Options{Seed: awakemis.DeriveSeed(b.seed, "perfbench/service/warm", int64(i))}}
			// The second submission is a cache hit.
			for range 2 {
				if _, err := c.Run(ctx, warm); err != nil {
					fl.stop()
					return fmt.Errorf("set-up %d: %w", k, err)
				}
			}
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}
	defer func() {
		if fl != nil {
			fl.stop()
		}
	}()

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}}
	defer hc.CloseIdleConnections()
	clients := make([]*svcClient, serviceClients)
	for i := range clients {
		clients[i] = &svcClient{id: i, seed: b.seed, rng: rand.New(rand.NewSource(awakemis.DeriveSeed(b.seed, "perfbench/service/stream", int64(i))))}
	}
	front0 := fl.front.srv.StatsSnapshot()
	workers0 := workerRuns(fl)

	// Main phase: each client submits, waits, and draws its next spec
	// until the time is up.
	var wg sync.WaitGroup
	var mu sync.Mutex // guards r.failOp
	phase := startTimed()
	for _, c := range clients {
		wg.Add(1)
		go func(c *svcClient) {
			defer wg.Done()
			cl := client.New(fl.front.url, hc)
			for k := 0; time.Since(phase.start) < b.dur || (b.tr != nil && k < 2); k++ {
				o := c.next()
				o.op = opID(c.id, len(c.ops))
				err := b.do(ctx, cl, &o, b.tr != nil && k%2 == 0)
				if err != nil {
					mu.Lock()
					r.failOp(o.op, "%v", err)
					mu.Unlock()
				} else if o.class == "miss" {
					c.misses = append(c.misses, len(c.ops))
				}
				c.ops = append(c.ops, o)
			}
		}(c)
	}
	wg.Wait()
	main := r.add(phase)
	front1 := fl.front.srv.StatsSnapshot()
	workers1 := workerRuns(fl)

	// Replay phase: a new front on the same store directory; each client
	// replays its first completed specs, which the memory cache of the
	// new front has never seen.
	if err := fl.front.stop(); err != nil {
		return fmt.Errorf("stopping the first front: %w", err)
	}
	fl.front = nil
	if fl.front, err = startFront(fl.dir, fl.workers); err != nil {
		return err
	}
	phase = startTimed()
	for _, c := range clients {
		wg.Add(1)
		go func(c *svcClient) {
			defer wg.Done()
			cl := client.New(fl.front.url, hc)
			for k := 0; k < min(replayPerClient, len(c.misses)); k++ {
				first := c.misses[k]
				o := svcOp{op: opID(c.id, len(c.ops)), class: "store-hit", spec: c.ops[first].spec, first: first}
				if err := b.do(ctx, cl, &o, b.tr != nil && k%2 == 0); err != nil {
					mu.Lock()
					r.failOp(o.op, "%v", err)
					mu.Unlock()
				}
				c.ops = append(c.ops, o)
			}
		}(c)
	}
	wg.Wait()
	r.add(phase)
	front2 := fl.front.srv.StatsSnapshot()
	workers2 := workerRuns(fl)

	// Count the outcomes the seeded sequences imply.
	want := map[string]int{}
	for _, c := range clients {
		for _, o := range c.ops {
			r.attempted++
			if _, failed := r.failedOps[o.op]; failed {
				continue
			}
			want[o.class]++
			r.reports++
			if o.traced {
				r.tracedS = append(r.tracedS, o.lat)
				r.tracedClass = append(r.tracedClass, o.class)
			} else {
				r.specS = append(r.specS, o.lat)
				r.specClass = append(r.specClass, o.class)
			}
		}
	}
	b.checkServiceCounts(want, front0, front1, front2, workers1-workers0, workers2-workers1)
	// The main phase is one window: its work is fixed by the seeded
	// streams, so whole-phase totals are steadier than any split of it.
	for _, c := range clients {
		for _, o := range c.ops {
			if _, bad := r.failedOps[o.op]; !bad && o.class != "store-hit" {
				main.reports++
				main.lats = append(main.lats, o.lat)
			}
		}
	}
	r.windows = []window{main}

	b.checkServiceBytes(ctx, clients)
	if b.tr != nil {
		b.serviceLayers(clients, want, front0, front1, front2, workers1-workers0)
	}
	err = fl.stop()
	fl = nil
	return err
}

// opID numbers operations uniquely across clients.
func opID(client, k int) int { return 1 + k*serviceClients + client }

func workerRuns(fl *fleet) int64 {
	var n int64
	for _, w := range fl.workers {
		n += w.srv.StatsSnapshot().EngineRuns
	}
	return n
}

// checkServiceCounts compares the daemons' counters with the outcome
// counts the clients' seeded sequences imply.
func (b *bench) checkServiceCounts(want map[string]int, f0, f1, f2 service.Stats, runs1, runs2 int64) {
	r := &b.res
	eq := func(what string, got int64, want int) {
		if got != int64(want) {
			r.problem("service-mix: %s is %d, the seeded sequence implies %d", what, got, want)
		}
	}
	eq("front cache hits", f1.CacheHits-f0.CacheHits, want["hit"])
	eq("front cache misses", f1.CacheMisses-f0.CacheMisses, want["miss"])
	eq("front forwards", f1.Forwarded-f0.Forwarded, want["miss"])
	eq("worker engine runs", runs1, want["miss"])
	eq("coalesced jobs", f1.Coalesced-f0.Coalesced, 0)
	eq("forward errors", f1.ForwardErrors-f0.ForwardErrors+f2.ForwardErrors, 0)
	eq("store write errors", f1.StoreErrors-f0.StoreErrors+f2.StoreErrors, 0)
	eq("restarted front store hits", f2.StoreHits, want["store-hit"])
	eq("restarted front forwards", f2.Forwarded, 0)
	eq("worker engine runs during replay", runs2, 0)
}

// checkServiceBytes checks every operation's bytes: a miss must equal a
// local awakemis.Run of the same canonical spec (wall_ms aside) whose
// output awakemis.Verify accepts, and a hit or store hit must repeat the
// miss's bytes exactly.
func (b *bench) checkServiceBytes(ctx context.Context, clients []*svcClient) {
	r := &b.res
	for _, c := range clients {
		for _, o := range c.ops {
			if _, failed := r.failedOps[o.op]; failed {
				continue
			}
			if o.class != "miss" {
				if !o.cached || o.raw != c.ops[o.first].raw {
					r.failOp(o.op, "%s bytes differ from the run that produced them (cached=%t)", o.class, o.cached)
				}
				continue
			}
			if err := b.checkMiss(ctx, o); err != nil {
				r.failOp(o.op, "%v", err)
			}
		}
	}
}

// checkMiss reruns a missed spec locally and compares bytes.
func (b *bench) checkMiss(ctx context.Context, o svcOp) error {
	canon := service.Canonicalize(o.spec)
	g, err := b.tracedGenerate(o.op, canon.Graph, canon.Options.Seed, o.traced)
	if err != nil {
		return err
	}
	var rep *awakemis.Report
	if o.traced {
		root := b.tr.open(o.op, 0, "reference")
		rep, err = b.tracedRun(ctx, o.op, root, canon, g.N(), nil, nil)
		if err == nil {
			_, err = b.tracedEncode(o.op, root, rep, true)
		}
		b.tr.close(root)
	} else {
		rep, err = awakemis.Run(ctx, canon)
	}
	if err != nil {
		return fmt.Errorf("local run: %w", err)
	}
	if err := b.tracedVerify(o.op, g, rep.Output.InMIS, o.traced); err != nil || !rep.Verified {
		return fmt.Errorf("local run not verified: %v", err)
	}
	rep.WallMS = 0
	local, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if digest(local) != o.zeroed {
		return fmt.Errorf("service report differs from the local run of the canonical spec")
	}
	return nil
}

// serviceLayers fills the client, service, store and cluster metrics.
func (b *bench) serviceLayers(clients []*svcClient, want map[string]int, f0, f1, f2 service.Stats, runs int64) {
	lat := map[string][]float64{}
	var submit, wait []float64
	for _, c := range clients {
		for _, o := range c.ops {
			if !o.traced || o.raw == "" {
				continue
			}
			lat[o.class] = append(lat[o.class], o.lat)
			submit = append(submit, o.submit)
			if o.class == "miss" {
				wait = append(wait, o.wait)
			}
		}
	}
	var most, least int64 = 0, -1
	for peer, n := range f1.PeerForwards {
		n -= f0.PeerForwards[peer]
		most = max(most, n)
		if least < 0 || n < least {
			least = n
		}
	}
	b.res.layers = map[string]float64{
		"client.submit_s_p50":            median(submit),
		"client.wait_s_p50":              median(wait),
		"service.miss_s_p50":             median(lat["miss"]),
		"service.hit_s_p50":              median(lat["hit"]),
		"service.store_hit_s_p50":        median(lat["store-hit"]),
		"service.cache_hit_frac":         ratio(float64(f1.CacheHits-f0.CacheHits), float64(f1.JobsSubmitted-f0.JobsSubmitted)),
		"service.coalesced":              float64(f1.Coalesced - f0.Coalesced),
		"service.runs_per_distinct_spec": ratio(float64(runs), float64(want["miss"])),
		"store.hits":                     float64(f2.StoreHits),
		"store.bytes":                    float64(f2.StoreBytes),
		"store.errors":                   float64(f1.StoreErrors - f0.StoreErrors + f2.StoreErrors),
		"cluster.forwarded":              float64(f1.Forwarded - f0.Forwarded),
		"cluster.forward_errors":         float64(f1.ForwardErrors - f0.ForwardErrors + f2.ForwardErrors),
		"cluster.peer_skew":              ratio(float64(most), float64(max(least, 1))),
	}
}
