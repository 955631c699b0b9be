package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lvp/client"
	"lvp/internal/axp21164"
	"lvp/internal/exp"
	"lvp/internal/obs"
	"lvp/internal/serve"
)

// The distributed acceptance gate lives here: a coordinator fronting
// in-process workers must stream NDJSON byte-identical to a single-node
// daemon — including while a worker is being killed mid-job — and a repeat
// job against a persistent store must be served without simulating a
// single cell.

// fastClient builds a worker client with millisecond backoff so failover
// tests don't sit in real retry sleeps.
func fastClient(base string) (*client.Client, error) {
	c, err := client.New(base)
	if err != nil {
		return nil, err
	}
	return c.WithRetry(client.RetryPolicy{
		MaxAttempts: 2,
		BaseDelay:   time.Millisecond,
		MaxDelay:    10 * time.Millisecond,
		Jitter:      true,
	}), nil
}

// testWorker is one in-process lvpd worker: a Manager behind a real HTTP
// server, optionally wrapped by mid.
func testWorker(t *testing.T, mid func(http.Handler) http.Handler) (*serve.Manager, *httptest.Server) {
	t.Helper()
	mgr := serve.NewManager(serve.Config{Workers: 2})
	var h http.Handler = serve.NewHandler(mgr)
	if mid != nil {
		h = mid(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { shutdownNow(t, mgr) })
	return mgr, srv
}

func shutdownNow(t *testing.T, m *serve.Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Errorf("manager shutdown: %v", err)
	}
}

// runJob submits spec, waits for the job to finish, and returns the raw
// NDJSON results body — the byte stream under the identity contract.
func runJob(t *testing.T, base string, spec serve.JobSpec) []byte {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}

	// The results endpoint streams until the job is done, so one GET both
	// waits and captures the canonical byte stream.
	resp, err = http.Get(base + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// coordinatorServer stands up a coordinator Manager over the given worker
// URLs and returns its base URL plus the coordinator for assertions.
func coordinatorServer(t *testing.T, reg *obs.Registry, start bool, workers ...string) (string, *Coordinator) {
	t.Helper()
	co, err := New(Config{
		Workers:        workers,
		NewClient:      fastClient,
		HealthInterval: 50 * time.Millisecond,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if start {
		co.Start()
		t.Cleanup(co.Stop)
	}
	mgr := serve.NewManager(serve.Config{CellRunner: co.RunCell, Metrics: reg})
	srv := httptest.NewServer(serve.NewHandler(mgr))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { shutdownNow(t, mgr) })
	return srv.URL, co
}

// distSpec exercises every cell kind across both worker dispatch orders:
// four sims, a locality sweep, and a zoo cell.
func distSpec() serve.JobSpec {
	return serve.JobSpec{
		Benchmarks:      []string{"quick"},
		Machines:        []string{serve.Machine21164, serve.Machine620},
		Configs:         []string{serve.ConfigNone, "Simple"},
		LocalityTargets: []string{"ppc"},
		LocalityDepths:  []int{1, 4},
		Predictors:      []string{"stride"},
	}
}

// TestCoordinatorByteIdentity is the tentpole gate: the coordinator's
// merged NDJSON stream is byte-for-byte the single-node daemon's stream for
// the same spec, and its first cell matches the engine run directly.
func TestCoordinatorByteIdentity(t *testing.T) {
	_, w1 := testWorker(t, nil)
	_, w2 := testWorker(t, nil)

	reg := obs.NewRegistry()
	base, _ := coordinatorServer(t, reg, true, w1.URL, w2.URL)
	got := runJob(t, base, distSpec())

	// Single-node reference for the same spec.
	_, solo := testWorker(t, nil)
	want := runJob(t, solo.URL, distSpec())

	if !bytes.Equal(got, want) {
		t.Errorf("coordinator stream differs from single-node stream\n coord: %s\n  solo: %s", got, want)
	}
	if reg.Counter("dist.dispatch.ok").Value() == 0 {
		t.Error("no cells were dispatched to workers")
	}

	// Anchor against the engine: the first cell (21164/none) must carry the
	// exact marshal of the direct exp.Suite result.
	var first serve.Event
	if err := json.Unmarshal(bytes.SplitN(got, []byte("\n"), 2)[0], &first); err != nil {
		t.Fatal(err)
	}
	direct := exp.NewSuiteParallel(1, 2)
	stats, err := direct.Sim21164("quick", axp21164.Config21164(), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantFirst, _ := json.Marshal(stats)
	if !bytes.Equal(first.Result, wantFirst) {
		t.Errorf("first cell result differs from direct engine run\n remote: %s\n direct: %s", first.Result, wantFirst)
	}
}

// TestCoordinatorFailover kills one worker's cell endpoint for the whole
// job and demands the full stream anyway, byte-identical, with the dead
// worker demoted and every one of its cells reassigned — then verifies the
// fleet teardown leaks no goroutines.
func TestCoordinatorFailover(t *testing.T) {
	// Registered before anything is stood up, so this cleanup runs after
	// every server/manager/coordinator teardown (LIFO): a dead worker must
	// not leak dispatchers or probes.
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before+5 {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Errorf("goroutines: %d before, %d after teardown", before, runtime.NumGoroutine())
	})

	var aborted atomic.Int64
	_, w1 := testWorker(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/cells" {
				// Drop the connection mid-response: the harshest failure a
				// worker can present short of a network partition.
				aborted.Add(1)
				panic(http.ErrAbortHandler)
			}
			next.ServeHTTP(w, r)
		})
	})
	_, w2 := testWorker(t, nil)

	reg := obs.NewRegistry()
	// No Start(): workers begin optimistically healthy and no probe loop
	// runs, so w1's demotion on its first failed dispatch is permanent and
	// the test cannot race a readmission (w1's /readyz still answers).
	base, co := coordinatorServer(t, reg, false, w1.URL, w2.URL)
	got := runJob(t, base, distSpec())

	_, solo := testWorker(t, nil)
	want := runJob(t, solo.URL, distSpec())

	if !bytes.Equal(got, want) {
		t.Errorf("stream under failover differs from single-node stream\n coord: %s\n  solo: %s", got, want)
	}
	if aborted.Load() == 0 {
		t.Error("failing worker was never tried: failover untested")
	}
	if reg.Counter("dist.dispatch.retry").Value() == 0 {
		t.Error("no reassignment recorded despite a dead worker")
	}
	if co.Healthy() != 1 {
		t.Errorf("Healthy() = %d after failover, want 1 (dead worker demoted)", co.Healthy())
	}
}

// TestRunCellNoWorkers pins the empty-fleet error path: a coordinator whose
// workers are all demoted fails cells with ErrNoWorkers once the context
// expires, rather than spinning.
func TestRunCellNoWorkers(t *testing.T) {
	_, w1 := testWorker(t, nil)
	co, err := New(Config{
		Workers:        []string{w1.URL},
		NewClient:      fastClient,
		HealthInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	co.workers[0].healthy.Store(false)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = co.RunCell(ctx, serve.Cell{Kind: "sim", Bench: "quick", Machine: serve.Machine21164, Config: serve.ConfigNone}, 1)
	if err == nil {
		t.Fatal("RunCell succeeded with no healthy workers")
	}
}

// TestPickLeastLoaded pins placement: lowest reported-plus-outstanding load
// wins, ties break toward the earlier worker, excluded and unhealthy
// workers never place.
func TestPickLeastLoaded(t *testing.T) {
	co, err := New(Config{Workers: []string{"a:1", "b:1", "c:1"}, NewClient: fastClient})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := co.workers[0], co.workers[1], co.workers[2]

	a.load.Store(5)
	b.load.Store(2)
	c.load.Store(2)
	c.outstanding.Store(1)
	if w := co.pick(nil); w != b {
		t.Errorf("pick chose %s, want b (lowest load)", w.name)
	}
	if w := co.pick(map[*worker]bool{b: true}); w != c {
		t.Errorf("pick with b excluded chose %s, want c", w.name)
	}
	b.load.Store(5) // a and b tie at 5; earlier worker wins
	c.healthy.Store(false)
	if w := co.pick(nil); w != a {
		t.Errorf("tie-break chose %s, want a (earlier in list)", w.name)
	}
	a.healthy.Store(false)
	b.healthy.Store(false)
	if w := co.pick(nil); w != nil {
		t.Errorf("pick with no healthy workers = %s, want nil", w.name)
	}
}

// TestNormalizeWorkerURL pins the host:port shorthand.
func TestNormalizeWorkerURL(t *testing.T) {
	for in, want := range map[string]string{
		"host:8347":          "http://host:8347",
		"http://host:8347":   "http://host:8347",
		"https://host:10443": "https://host:10443",
	} {
		if got := normalizeWorkerURL(in); got != want {
			t.Errorf("normalizeWorkerURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestStoreRestartHit is the persistence acceptance test: a daemon restart
// (new Manager, new Store over the same directory) serves a repeated job
// spec entirely from the store — zero simulated cells — with byte-identical
// results.
func TestStoreRestartHit(t *testing.T) {
	dir := t.TempDir()
	spec := distSpec()

	// First life: compute everything, write through to disk.
	store1, err := NewStore(StoreConfig{Dir: dir, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := serve.NewManager(serve.Config{Workers: 2, Store: store1})
	srv1 := httptest.NewServer(serve.NewHandler(mgr1))
	first := runJob(t, srv1.URL, spec)
	shutdownNow(t, mgr1)
	srv1.Close()

	// Second life: fresh process state, same store directory. Counting the
	// cells via a CellRunner spy proves nothing was simulated.
	reg := obs.NewRegistry()
	store2, err := NewStore(StoreConfig{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var computed atomic.Int64
	mgr2 := serve.NewManager(serve.Config{
		Workers: 2,
		Store:   store2,
		Metrics: reg,
		CellRunner: func(ctx context.Context, cell serve.Cell, scale int) (json.RawMessage, error) {
			computed.Add(1)
			return nil, fmt.Errorf("cell %s not in store: restart hit must not compute", cell)
		},
	})
	srv2 := httptest.NewServer(serve.NewHandler(mgr2))
	defer srv2.Close()
	defer shutdownNow(t, mgr2)
	second := runJob(t, srv2.URL, spec)

	if !bytes.Equal(first, second) {
		t.Errorf("restarted store changed the stream\n first: %s\nsecond: %s", first, second)
	}
	if n := computed.Load(); n != 0 {
		t.Errorf("%d cells were computed after restart, want 0 (all from store)", n)
	}
	cells := int64(bytes.Count(first, []byte("\n")) - 1) // minus the done event
	if got := reg.Counter("dist.store.hit").Value(); got != cells {
		t.Errorf("dist.store.hit = %d, want %d", got, cells)
	}
	if got := reg.Counter("dist.store.disk_hit").Value(); got != cells {
		t.Errorf("dist.store.disk_hit = %d, want %d", got, cells)
	}
	if got := reg.Counter("dist.store.miss").Value(); got != 0 {
		t.Errorf("dist.store.miss = %d, want 0", got)
	}
}

// TestCoordinatorWithStore wires both tentpole halves together: the
// coordinator consults the store before dispatching, so a repeated job
// costs zero RPCs.
func TestCoordinatorWithStore(t *testing.T) {
	_, w1 := testWorker(t, nil)

	reg := obs.NewRegistry()
	store, err := NewStore(StoreConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	co, err := New(Config{Workers: []string{w1.URL}, NewClient: fastClient, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	mgr := serve.NewManager(serve.Config{CellRunner: co.RunCell, Store: store, Metrics: reg})
	srv := httptest.NewServer(serve.NewHandler(mgr))
	defer srv.Close()
	defer shutdownNow(t, mgr)

	first := runJob(t, srv.URL, distSpec())
	dispatched := reg.Counter("dist.dispatch.ok").Value()
	if dispatched == 0 {
		t.Fatal("first run dispatched nothing")
	}
	second := runJob(t, srv.URL, distSpec())
	if !bytes.Equal(first, second) {
		t.Error("repeat job changed the stream")
	}
	if got := reg.Counter("dist.dispatch.ok").Value(); got != dispatched {
		t.Errorf("repeat job dispatched %d new cells, want 0", got-dispatched)
	}
}
