package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lvp/internal/axp21164"
	"lvp/internal/exp"
	"lvp/internal/locality"
)

// Tests for the distributed-serving building blocks that live in serve: the
// internal cell-execution endpoint, the readiness body, per-tenant
// admission, and the ResultStore/CellRunner hooks.

// execCell posts one CellRequest and returns the response.
func execCell(t *testing.T, httpc *http.Client, base string, req CellRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := httpc.Post(base+"/v1/cells", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestExecCellByteIdentity pins the worker half of distributed mode: the
// raw bytes answered by POST /v1/cells are exactly the json.Marshal of the
// struct the engine returns for the same cell.
func TestExecCellByteIdentity(t *testing.T) {
	mgr := NewManager(Config{Workers: 2})
	defer shutdownNow(t, mgr)
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()

	resp := execCell(t, srv.Client(), srv.URL, CellRequest{
		Cell: Cell{Kind: "sim", Bench: "quick", Machine: Machine21164, Config: ConfigNone},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exec cell status = %d", resp.StatusCode)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}

	direct := exp.NewSuiteParallel(1, 2)
	stats, err := direct.Sim21164("quick", axp21164.Config21164(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(stats)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("remote cell differs from direct engine run\n remote: %s\n direct: %s", got.Bytes(), want)
	}
}

// TestExecCellRejections pins the endpoint's error mapping: invalid cells
// are 400 (never retryable), a draining server is 503 (fail over).
func TestExecCellRejections(t *testing.T) {
	mgr := NewManager(Config{})
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()

	resp := execCell(t, srv.Client(), srv.URL, CellRequest{
		Cell: Cell{Kind: "sim", Bench: "quick", Machine: "vax", Config: ConfigNone},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad machine status = %d, want 400", resp.StatusCode)
	}

	resp = execCell(t, srv.Client(), srv.URL, CellRequest{
		Cell:  Cell{Kind: "sim", Bench: "quick", Machine: Machine21164, Config: ConfigNone},
		Scale: 999,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("huge scale status = %d, want 400", resp.StatusCode)
	}

	shutdownNow(t, mgr)
	resp = execCell(t, srv.Client(), srv.URL, CellRequest{
		Cell: Cell{Kind: "sim", Bench: "quick", Machine: Machine21164, Config: ConfigNone},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining status = %d, want 503", resp.StatusCode)
	}
}

// TestReadyzBody pins the readiness JSON: the load signals a coordinator
// needs for least-loaded placement, flipping to draining on shutdown.
func TestReadyzBody(t *testing.T) {
	mgr := NewManager(Config{QueueDepth: 7, Runners: 3})
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()

	get := func() (Readiness, int) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rd Readiness
		if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
			t.Fatalf("readyz body did not decode: %v", err)
		}
		return rd, resp.StatusCode
	}

	rd, code := get()
	if code != http.StatusOK {
		t.Fatalf("readyz status = %d, want 200", code)
	}
	if !rd.Ready || rd.Draining || rd.QueueCap != 7 || rd.Runners != 3 {
		t.Errorf("readiness = %+v, want ready with queue_cap 7, runners 3", rd)
	}
	if rd.QueueDepth != 0 || rd.RunningJobs != 0 || rd.InFlightCells != 0 {
		t.Errorf("idle readiness reports load: %+v", rd)
	}

	shutdownNow(t, mgr)
	rd, code = get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status = %d, want 503", code)
	}
	if rd.Ready || !rd.Draining {
		t.Errorf("draining readiness = %+v", rd)
	}
}

// TestReadyzCountsInFlightCells pins that remote cell execution shows up in
// the readiness load signal while it runs.
func TestReadyzCountsInFlightCells(t *testing.T) {
	mgr := NewManager(Config{})
	defer shutdownNow(t, mgr)

	release := make(chan struct{})
	started := make(chan struct{})
	mgr.cfg.CellRunner = func(ctx context.Context, cell Cell, scale int) (json.RawMessage, error) {
		close(started)
		<-release
		return json.RawMessage(`{}`), nil
	}
	done := make(chan error, 1)
	go func() {
		_, err := mgr.ExecCell(context.Background(), Cell{Kind: "sim", Bench: "quick", Machine: Machine21164, Config: ConfigNone}, 1, "")
		done <- err
	}()
	<-started
	if rd := mgr.Readiness(); rd.InFlightCells != 1 || rd.Load() != 1 {
		t.Errorf("readiness mid-cell = %+v, want in_flight_cells 1", rd)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rd := mgr.Readiness(); rd.InFlightCells != 0 {
		t.Errorf("readiness after cell = %+v, want in_flight_cells 0", rd)
	}
}

// TestTenantQuota pins per-tenant admission: a tenant's token bucket
// rejects with 429 + Retry-After once empty, without touching other
// tenants, and refills at the configured rate.
func TestTenantQuota(t *testing.T) {
	mgr := NewManager(Config{TenantRate: 1, TenantBurst: 2})
	defer shutdownNow(t, mgr)
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()

	// Deterministic clock.
	now := time.Unix(1700000000, 0)
	var mu sync.Mutex
	mgr.tenants.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	submitAs := func(tenant string) *http.Response {
		t.Helper()
		body, _ := json.Marshal(JobSpec{Benchmarks: []string{"quick"}, Machines: []string{Machine21164}, Configs: []string{ConfigNone}})
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Burst of 2 admitted, third rejected with a refill hint.
	for i := 0; i < 2; i++ {
		if resp := submitAs("acme"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status = %d, want 202", i, resp.StatusCode)
		}
	}
	resp := submitAs("acme")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want >= 1s", resp.Header.Get("Retry-After"))
	}

	// Another tenant (and the anonymous tenant) are unaffected.
	if resp := submitAs("globex"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("other tenant status = %d, want 202", resp.StatusCode)
	}
	if resp := submitAs(""); resp.StatusCode != http.StatusAccepted {
		t.Errorf("anonymous tenant status = %d, want 202", resp.StatusCode)
	}

	// One second refills one token at rate 1.
	advance(time.Second)
	if resp := submitAs("acme"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("post-refill status = %d, want 202", resp.StatusCode)
	}
	if resp := submitAs("acme"); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("second post-refill status = %d, want 429", resp.StatusCode)
	}

	if n := mgr.Metrics().Counter("serve.tenant.rejected").Value(); n != 2 {
		t.Errorf("serve.tenant.rejected = %d, want 2", n)
	}
}

// countingStore is an in-memory ResultStore for hook tests.
type countingStore struct {
	mu   sync.Mutex
	m    map[string]json.RawMessage
	hits atomic.Int64
}

func (s *countingStore) key(cell Cell, scale int) string {
	return cell.String() + "@" + strconv.Itoa(scale)
}

func (s *countingStore) Get(cell Cell, scale int) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.m[s.key(cell, scale)]
	if ok {
		s.hits.Add(1)
	}
	return res, ok
}

func (s *countingStore) Put(cell Cell, scale int, res json.RawMessage) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[s.key(cell, scale)] = res
}

// TestStoreShortCircuitsCompute pins the store hook: a repeat job is served
// entirely from the store — the runner is never invoked — and its streamed
// payload bytes are identical to the first run's.
func TestStoreShortCircuitsCompute(t *testing.T) {
	store := &countingStore{m: map[string]json.RawMessage{}}
	var computed atomic.Int64
	direct := exp.NewSuiteParallel(1, 2)

	mgr := NewManager(Config{
		Store: store,
		CellRunner: func(ctx context.Context, cell Cell, scale int) (json.RawMessage, error) {
			computed.Add(1)
			return computeCell(direct.WithContext(ctx), cell)
		},
	})
	defer shutdownNow(t, mgr)
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()

	spec := JobSpec{
		Benchmarks: []string{"quick"},
		Machines:   []string{Machine21164, Machine620},
		Configs:    []string{ConfigNone, "Simple"},
	}
	run := func() []Event {
		t.Helper()
		st, resp := submit(t, srv.Client(), srv.URL, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d", resp.StatusCode)
		}
		return streamEvents(t, srv.Client(), srv.URL, st.ID)
	}

	first := run()
	wantComputed := int64(len(spec.Cells()))
	if n := computed.Load(); n != wantComputed {
		t.Fatalf("first run computed %d cells, want %d", n, wantComputed)
	}

	second := run()
	if n := computed.Load(); n != wantComputed {
		t.Errorf("repeat run recomputed cells: runner saw %d calls, want still %d", n, wantComputed)
	}
	if n := store.hits.Load(); n != wantComputed {
		t.Errorf("store hits = %d, want %d", n, wantComputed)
	}
	if len(first) != len(second) {
		t.Fatalf("runs streamed %d vs %d events", len(first), len(second))
	}
	for i := range first {
		if !bytes.Equal(first[i].Result, second[i].Result) {
			t.Errorf("cell %d bytes differ between cached and computed runs", i)
		}
	}
}

// TestCellValidate covers the standalone cell validator the execution
// endpoint admits with.
func TestCellValidate(t *testing.T) {
	valid := []Cell{
		{Kind: "sim", Bench: "quick", Machine: Machine620Plus, Config: "Simple"},
		{Kind: "locality", Bench: "quick", Target: "ppc", Depths: []int{1, 4}},
		{Kind: "zoo", Bench: "quick", Predictor: "stride"},
	}
	for _, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", c, err)
		}
	}
	invalid := []Cell{
		{Kind: "sim", Bench: "no-such-bench", Machine: Machine620, Config: ConfigNone},
		{Kind: "sim", Bench: "quick", Machine: "vax", Config: ConfigNone},
		{Kind: "sim", Bench: "quick", Machine: Machine620, Config: "NoSuchConfig"},
		{Kind: "locality", Bench: "quick", Target: "mips", Depths: []int{1}},
		{Kind: "locality", Bench: "quick", Target: "ppc"},
		{Kind: "locality", Bench: "quick", Target: "ppc", Depths: []int{0}},
		{Kind: "locality", Bench: "quick", Target: "ppc", Depths: []int{locality.MaxDepth + 1}},
		{Kind: "zoo", Bench: "quick", Predictor: "no-such-family"},
		{Kind: "???", Bench: "quick"},
	}
	for _, c := range invalid {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%s) = nil, want error", c)
		}
	}
}

// TestLocalityDepthBound is the regression test for a request-controlled
// history depth: a depth past locality.MaxDepth once passed validation and
// overflowed the history table's entries*depth on a pool goroutine, killing
// the daemon. Both endpoints must answer 400 naming the bound, and the
// server must keep serving.
func TestLocalityDepthBound(t *testing.T) {
	mgr := NewManager(Config{Workers: 2})
	defer shutdownNow(t, mgr)
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()
	httpc := srv.Client()

	readErr := func(resp *http.Response) string {
		t.Helper()
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return b.String()
	}
	for _, d := range []int{locality.MaxDepth + 1, 1 << 60} {
		spec := JobSpec{Benchmarks: []string{"quick"}, LocalityTargets: []string{"ppc"}, LocalityDepths: []int{d}}
		body, _ := json.Marshal(spec)
		resp, err := httpc.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if msg := readErr(resp); resp.StatusCode != http.StatusBadRequest || !bytes.Contains([]byte(msg), []byte("MaxDepth")) {
			t.Errorf("job with depth %d: status %d body %q, want 400 naming MaxDepth", d, resp.StatusCode, msg)
		}
		resp = execCell(t, httpc, srv.URL, CellRequest{
			Cell: Cell{Kind: "locality", Bench: "quick", Target: "ppc", Depths: []int{d}},
		})
		if msg := readErr(resp); resp.StatusCode != http.StatusBadRequest || !bytes.Contains([]byte(msg), []byte("MaxDepth")) {
			t.Errorf("cell with depth %d: status %d body %q, want 400 naming MaxDepth", d, resp.StatusCode, msg)
		}
	}
	// The bound itself is served.
	resp := execCell(t, httpc, srv.URL, CellRequest{
		Cell: Cell{Kind: "locality", Bench: "quick", Target: "ppc", Depths: []int{1, locality.MaxDepth}},
	})
	if msg := readErr(resp); resp.StatusCode != http.StatusOK {
		t.Errorf("cell with depths 1 and %d: status %d body %q, want 200", locality.MaxDepth, resp.StatusCode, msg)
	}
}

// depthListCases are locality depth lists that each depth alone admits but
// the list does not: one past locality.MaxDepth entries (all distinct
// values are used up, so it repeats one) and a short list with a
// duplicate. Each once passed validation, and a long enough list made
// locality.Measure build one history table per entry.
var depthListCases = []struct {
	depths []int
	want   string // in the 400 body
}{
	{append([]int{1}, seqDepths()...), "MaxDepth"},
	{[]int{4, 1, 4}, "listed twice"},
}

func seqDepths() []int {
	ds := make([]int, locality.MaxDepth)
	for i := range ds {
		ds[i] = i + 1
	}
	return ds
}

// depthListServer serves a manager whose cell runner fails the test: the
// depth-list checks must reject a request by validation alone.
func depthListServer(t *testing.T) (*httptest.Server, func()) {
	mgr := NewManager(Config{
		Workers: 1,
		CellRunner: func(ctx context.Context, cell Cell, scale int) (json.RawMessage, error) {
			t.Errorf("cell %s ran; want it rejected before it runs", cell)
			return nil, errors.New("cell ran")
		},
	})
	srv := httptest.NewServer(NewHandler(mgr))
	return srv, func() { srv.Close(); shutdownNow(t, mgr) }
}

// TestLocalityDepthListJobs: POST /v1/jobs answers 400 naming the bound to
// a depth list longer than locality.MaxDepth or with a duplicate.
func TestLocalityDepthListJobs(t *testing.T) {
	srv, done := depthListServer(t)
	defer done()
	for _, c := range depthListCases {
		spec := JobSpec{Benchmarks: []string{"quick"}, LocalityTargets: []string{"ppc"}, LocalityDepths: c.depths}
		body, _ := json.Marshal(spec)
		resp, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(b.String(), c.want) {
			t.Errorf("job with %d depths %v: status %d body %q, want 400 naming %q", len(c.depths), c.depths, resp.StatusCode, b.String(), c.want)
		}
	}
}

// TestLocalityDepthListCells: POST /v1/cells answers 400 naming the bound
// to the same depth lists.
func TestLocalityDepthListCells(t *testing.T) {
	srv, done := depthListServer(t)
	defer done()
	for _, c := range depthListCases {
		resp := execCell(t, srv.Client(), srv.URL, CellRequest{
			Cell: Cell{Kind: "locality", Bench: "quick", Target: "ppc", Depths: c.depths},
		})
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(b.String(), c.want) {
			t.Errorf("cell with %d depths %v: status %d body %q, want 400 naming %q", len(c.depths), c.depths, resp.StatusCode, b.String(), c.want)
		}
	}
}

// TestCellPanicFailsOnlyItsJob forces a panic inside one cell's compute
// through the CellRunner hook: that job fails with the panic in its status,
// serve.cell.panics counts it, and the daemon goes on to serve a second job
// over the same HTTP server.
func TestCellPanicFailsOnlyItsJob(t *testing.T) {
	direct := exp.NewSuiteParallel(1, 2)
	mgr := NewManager(Config{
		Workers: 2,
		CellRunner: func(ctx context.Context, cell Cell, scale int) (json.RawMessage, error) {
			if cell.Bench == "grep" {
				panic("injected cell fault")
			}
			return computeCell(direct.WithContext(ctx), cell)
		},
	})
	defer shutdownNow(t, mgr)
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()

	run := func(bench string) JobStatus {
		t.Helper()
		spec := JobSpec{Benchmarks: []string{bench}, Machines: []string{Machine21164}, Configs: []string{ConfigNone}}
		st, resp := submit(t, srv.Client(), srv.URL, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d", resp.StatusCode)
		}
		streamEvents(t, srv.Client(), srv.URL, st.ID)
		st, _ = getStatus(t, srv.Client(), srv.URL, st.ID)
		return st
	}
	if st := run("grep"); st.State != StateFailed || !strings.Contains(st.Error, "injected cell fault") {
		t.Fatalf("panicking job: state %q, error %q; want failed with the panic", st.State, st.Error)
	}
	if n := mgr.Metrics().Counter("serve.cell.panics").Value(); n != 1 {
		t.Fatalf("serve.cell.panics = %d, want 1", n)
	}
	if st := run("quick"); st.State != StateDone {
		t.Fatalf("job after the panic: state %q, error %q; want done", st.State, st.Error)
	}
}
