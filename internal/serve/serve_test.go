package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"lvp/internal/axp21164"
	"lvp/internal/exp"
	"lvp/internal/locality"
	"lvp/internal/lvp"
	"lvp/internal/ppc620"
)

// shutdownNow drains a manager with a short deadline so tests always clean
// up even when they left jobs running deliberately.
func shutdownNow(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m.Shutdown(ctx)
}

// streamEvents reads a job's whole NDJSON stream through an HTTP client.
func streamEvents(t *testing.T, httpc *http.Client, base, id string) []Event {
	t.Helper()
	resp, err := httpc.Get(base + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content-type = %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// submit posts a spec and decodes the response.
func submit(t *testing.T, httpc *http.Client, base string, spec JobSpec) (JobStatus, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := httpc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	return st, resp
}

// TestE2EByteIdentity is the acceptance gate: an in-process lvpd serves a
// multi-cell job (simulations on all three machines plus locality sweeps)
// over HTTP, and every streamed result payload is byte-identical to
// json.Marshal of the same cell computed via exp.Suite directly.
func TestE2EByteIdentity(t *testing.T) {
	mgr := NewManager(Config{Workers: 4})
	defer shutdownNow(t, mgr)
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()
	httpc := srv.Client()

	spec := JobSpec{
		Benchmarks:      []string{"quick", "grep"},
		Machines:        []string{Machine620, Machine620Plus, Machine21164},
		Configs:         []string{ConfigNone, "Simple"},
		LocalityTargets: []string{"ppc", "axp"},
		LocalityDepths:  []int{1, 16},
	}
	st, resp := submit(t, httpc, srv.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	wantCells := len(spec.Cells())
	if st.Cells != wantCells {
		t.Fatalf("accepted job has %d cells, want %d", st.Cells, wantCells)
	}

	events := streamEvents(t, httpc, srv.URL, st.ID)
	if len(events) != wantCells+1 {
		t.Fatalf("stream has %d events, want %d cells + done", len(events), wantCells)
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.State != StateDone {
		t.Fatalf("terminal event = %+v, want done/done", last)
	}

	// Recompute every cell directly on a fresh suite and compare bytes.
	direct := exp.NewSuiteParallel(1, 4)
	for i, ev := range events[:wantCells] {
		if ev.Type != "cell" || ev.Index != i {
			t.Fatalf("event %d = %+v, want cell event in index order", i, ev)
		}
		if ev.Error != "" {
			t.Fatalf("cell %d (%s) failed: %s", i, ev.Cell, ev.Error)
		}
		cell := *ev.Cell
		var want []byte
		switch cell.Kind {
		case "sim":
			var cfgPtr *lvp.Config
			if cell.Config != ConfigNone {
				cfg, err := lvp.ByName(cell.Config)
				if err != nil {
					t.Fatal(err)
				}
				cfgPtr = &cfg
			}
			switch cell.Machine {
			case Machine21164:
				stats, err := direct.Sim21164(cell.Bench, axp21164.Config21164(), cfgPtr)
				if err != nil {
					t.Fatal(err)
				}
				want, _ = json.Marshal(stats)
			default:
				mc := ppc620.Config620()
				if cell.Machine == Machine620Plus {
					mc = ppc620.Config620Plus()
				}
				stats, err := direct.Sim620(cell.Bench, mc, cfgPtr)
				if err != nil {
					t.Fatal(err)
				}
				want, _ = json.Marshal(stats)
			}
		case "locality":
			tg, err := targetByName(cell.Target)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := direct.Trace(cell.Bench, tg)
			if err != nil {
				t.Fatal(err)
			}
			want, _ = json.Marshal(locality.Measure(tr, locality.DefaultEntries, cell.Depths...))
		}
		if !bytes.Equal(ev.Result, want) {
			t.Errorf("cell %d (%s): served bytes differ from direct computation\n served: %s\n direct: %s",
				i, cell, ev.Result, want)
		}
	}

	// The job's status must be terminal and fully counted.
	final, resp2 := getStatus(t, httpc, srv.URL, st.ID)
	if resp2.StatusCode != http.StatusOK || final.State != StateDone || final.CellsDone != wantCells {
		t.Fatalf("final status = %+v (http %d)", final, resp2.StatusCode)
	}
}

func getStatus(t *testing.T, httpc *http.Client, base, id string) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := httpc.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	return st, resp
}

// TestQueueFull429 pins the backpressure contract: with one runner held
// busy and a depth-1 queue occupied, the next submission is rejected with
// 429 and a Retry-After hint, and a slot freeing up admits work again.
func TestQueueFull429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	mgr := NewManager(Config{QueueDepth: 1, Runners: 1, RetryAfter: 2 * time.Second})
	holdFirst := true
	mgr.testJobStart = func(*Job) {
		if holdFirst { // runs on the single runner goroutine only
			holdFirst = false
			started <- struct{}{}
			<-release
		}
	}
	defer shutdownNow(t, mgr)
	defer releaseOnce(release)
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()
	httpc := srv.Client()

	quick := JobSpec{Benchmarks: []string{"quick"}, Machines: []string{Machine21164}, Configs: []string{ConfigNone}}

	// First job occupies the runner (held by the test hook), second sits
	// in the queue.
	_, resp1 := submit(t, httpc, srv.URL, quick)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1 status = %d", resp1.StatusCode)
	}
	<-started // runner is now holding job 1
	_, resp2 := submit(t, httpc, srv.URL, quick)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2 status = %d", resp2.StatusCode)
	}

	// Queue full: the third submission must bounce with Retry-After.
	_, resp3 := submit(t, httpc, srv.URL, quick)
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3 status = %d, want 429", resp3.StatusCode)
	}
	if ra := resp3.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}

	// Releasing the runner drains the queue; the client's retry (modelled
	// here as polling) eventually gets admitted.
	releaseOnce(release)
	admitted := false
	for i := 0; i < 100 && !admitted; i++ {
		_, resp := submit(t, httpc, srv.URL, quick)
		admitted = resp.StatusCode == http.StatusAccepted
		if !admitted {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !admitted {
		t.Fatal("submission never admitted after queue drained")
	}
}

// releaseOnce closes ch if still open (the deferred close tolerates this).
func releaseOnce(ch chan struct{}) {
	defer func() { recover() }()
	close(ch)
}

// TestGracefulDrain checks Shutdown under load: queued and running jobs
// all finish, later submissions are refused with 503, and readyz flips.
func TestGracefulDrain(t *testing.T) {
	mgr := NewManager(Config{QueueDepth: 8, Runners: 1, Workers: 2})
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()
	httpc := srv.Client()

	quick := JobSpec{Benchmarks: []string{"quick"}, Machines: []string{Machine620, Machine21164}, Configs: []string{ConfigNone, "Simple"}}
	var ids []string
	for i := 0; i < 3; i++ {
		st, resp := submit(t, httpc, srv.URL, quick)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d status = %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}

	// Every accepted job ran to completion.
	for _, id := range ids {
		st, _ := getStatus(t, httpc, srv.URL, id)
		if st.State != StateDone {
			t.Errorf("job %s drained into state %q, want done", id, st.State)
		}
	}

	// Draining servers refuse new work and report not-ready.
	_, resp := submit(t, httpc, srv.URL, quick)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit status = %d, want 503", resp.StatusCode)
	}
	ready, err := httpc.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz = %d after drain, want 503", ready.StatusCode)
	}
	health, err := httpc.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200 (liveness is not readiness)", health.StatusCode)
	}
}

// TestDrainDeadlineCancels checks the other half of Shutdown: when the
// drain context fires first, in-flight jobs are cancelled rather than
// awaited forever.
func TestDrainDeadlineCancels(t *testing.T) {
	release := make(chan struct{})
	defer releaseOnce(release)
	started := make(chan struct{})
	mgr := NewManager(Config{QueueDepth: 2, Runners: 1})
	hold := true
	mgr.testJobStart = func(*Job) {
		if hold {
			hold = false
			close(started)
			<-release
		}
	}
	job, err := mgr.Submit(JobSpec{Benchmarks: []string{"quick"}, Machines: []string{Machine21164}, Configs: []string{ConfigNone}})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Shutdown's drain deadline (50ms) fires while the runner is still
	// held by the hook; the hook releases well after (400ms), so the job
	// then runs under the already-cancelled base context. Shutdown waits
	// for that forced exit and reports the deadline.
	go func() {
		time.Sleep(400 * time.Millisecond)
		releaseOnce(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = mgr.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}

	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job never reached a terminal state after forced shutdown")
	}
	if st := job.Status(); st.State != StateFailed && st.State != StateCancelled {
		t.Fatalf("job state after forced shutdown = %q", st.State)
	}
}

// TestMidJobCancellation cancels a streaming job after its first cell and
// checks the stream terminates with a cancelled state, later cells are
// skipped, and — the leak gate — the process returns to its baseline
// goroutine count.
func TestMidJobCancellation(t *testing.T) {
	baseline := runtime.NumGoroutine()

	mgr := NewManager(Config{QueueDepth: 4, Runners: 1, Workers: 1})
	srv := httptest.NewServer(NewHandler(mgr))
	httpc := srv.Client()

	// A wide job: every benchmark on two machines, so cancellation after
	// the first cell always lands mid-job.
	spec := JobSpec{
		Benchmarks: []string{"quick", "grep", "compress", "sc", "cjpeg", "eqntott", "gawk"},
		Machines:   []string{Machine620, Machine620Plus, Machine21164},
		Configs:    []string{ConfigNone, "Simple", "Constant"},
	}
	st, resp := submit(t, httpc, srv.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}

	res, err := httpc.Get(srv.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	cancelled := false
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
		if !cancelled && ev.Type == "cell" {
			cancelled = true
			req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
			cresp, err := httpc.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			cresp.Body.Close()
			if cresp.StatusCode != http.StatusOK {
				t.Fatalf("cancel status = %d", cresp.StatusCode)
			}
		}
	}
	res.Body.Close()
	if !cancelled {
		t.Fatal("stream produced no cell to cancel after")
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.State != StateCancelled {
		t.Fatalf("terminal event = %+v, want done/cancelled", last)
	}
	if n := len(events) - 1; n >= len(spec.Cells()) {
		t.Errorf("all %d cells ran despite cancellation", n)
	}
	final, _ := getStatus(t, httpc, srv.URL, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("final state = %q, want cancelled", final.State)
	}

	// Tear everything down and assert no goroutines leaked: runner
	// goroutines, job contexts, and stream handlers must all be gone.
	shutdownNow(t, mgr)
	srv.Close()
	httpc.CloseIdleConnections()
	assertGoroutinesReturn(t, baseline)
}

// assertGoroutinesReturn polls until the goroutine count falls back to the
// baseline (with small tolerance for runtime helpers), dumping stacks on
// timeout so leaks are diagnosable.
func assertGoroutinesReturn(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d now vs %d baseline\n%s", n, baseline, buf)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestCancelQueuedJob pins that a job cancelled while still queued never
// runs a cell.
func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	mgr := NewManager(Config{QueueDepth: 2, Runners: 1})
	first := true
	mgr.testJobStart = func(*Job) {
		if first {
			first = false
			started <- struct{}{}
			<-release
		}
	}
	defer shutdownNow(t, mgr)

	quick := JobSpec{Benchmarks: []string{"quick"}, Machines: []string{Machine21164}, Configs: []string{ConfigNone}}
	if _, err := mgr.Submit(quick); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := mgr.Submit(quick)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	select {
	case <-queued.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("queued job never terminal")
	}
	st := queued.Status()
	if st.State != StateCancelled || st.CellsDone != 0 {
		t.Fatalf("queued-then-cancelled job = %+v, want cancelled with 0 cells", st)
	}
}

// TestSpecValidation sweeps the rejection paths of JobSpec.Validate and the
// HTTP 400 mapping.
func TestSpecValidation(t *testing.T) {
	mgr := NewManager(Config{})
	defer shutdownNow(t, mgr)
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()
	httpc := srv.Client()

	bad := []JobSpec{
		{},                              // no benchmarks
		{Benchmarks: []string{"nope"}},  // unknown benchmark
		{Benchmarks: []string{"quick"}}, // zero cells
		{Benchmarks: []string{"quick"}, Machines: []string{"620"}},                                       // machines without configs
		{Benchmarks: []string{"quick"}, Machines: []string{"x86"}, Configs: []string{ConfigNone}},        // unknown machine
		{Benchmarks: []string{"quick"}, Machines: []string{"620"}, Configs: []string{"Fancy"}},           // unknown config
		{Benchmarks: []string{"quick"}, LocalityTargets: []string{"arm"}, LocalityDepths: []int{1}},      // unknown target
		{Benchmarks: []string{"quick"}, LocalityTargets: []string{"ppc"}},                                // no depths
		{Benchmarks: []string{"quick"}, LocalityTargets: []string{"ppc"}, LocalityDepths: []int{0}},      // bad depth
		{Benchmarks: []string{"quick"}, Machines: []string{"620"}, Configs: []string{"none"}, Scale: -1}, // bad scale
		{Benchmarks: []string{"quick"}, Machines: []string{"620"}, Configs: []string{"none"}, Scale: 99}, // over MaxScale
	}
	for i, spec := range bad {
		if _, resp := submit(t, httpc, srv.URL, spec); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %d accepted with status %d", i, resp.StatusCode)
		}
	}

	// Unknown fields and oversized bodies are rejected too.
	resp, err := httpc.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmarks":["quick"],"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown-field spec status = %d, want 400", resp.StatusCode)
	}

	// Unknown job IDs 404 on every job route.
	for _, probe := range []func() (*http.Response, error){
		func() (*http.Response, error) { return httpc.Get(srv.URL + "/v1/jobs/job-999999") },
		func() (*http.Response, error) { return httpc.Get(srv.URL + "/v1/jobs/job-999999/results") },
		func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/job-999999", nil)
			return httpc.Do(req)
		},
	} {
		resp, err := probe()
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown-job probe status = %d, want 404", resp.StatusCode)
		}
	}
}

// TestMetricsEndpoint checks /metrics serves a deterministic-shape JSON
// snapshot including serving counters.
func TestMetricsEndpoint(t *testing.T) {
	mgr := NewManager(Config{Workers: 2})
	defer shutdownNow(t, mgr)
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()
	httpc := srv.Client()

	quick := JobSpec{Benchmarks: []string{"quick"}, Machines: []string{Machine21164}, Configs: []string{ConfigNone}}
	st, _ := submit(t, httpc, srv.URL, quick)
	streamEvents(t, httpc, srv.URL, st.ID) // wait for completion

	resp, err := httpc.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serve.jobs.submitted", "serve.jobs.completed", "serve.cells.done", "progress.trace"} {
		if snap.Counters[name] < 1 {
			t.Errorf("counter %s = %d, want >= 1 (have: %v)", name, snap.Counters[name], snap.Counters)
		}
	}
}

// TestSharedCachesAcrossJobs pins the serving-side single-flight property:
// two jobs over the same cells build each trace/simulation once.
func TestSharedCachesAcrossJobs(t *testing.T) {
	mgr := NewManager(Config{Workers: 2})
	defer shutdownNow(t, mgr)
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()
	httpc := srv.Client()

	quick := JobSpec{Benchmarks: []string{"quick"}, Machines: []string{Machine21164}, Configs: []string{ConfigNone, "Simple"}}
	for i := 0; i < 2; i++ {
		st, _ := submit(t, httpc, srv.URL, quick)
		events := streamEvents(t, httpc, srv.URL, st.ID)
		if last := events[len(events)-1]; last.State != StateDone {
			t.Fatalf("job %d ended %q", i, last.State)
		}
	}

	resp, err := httpc.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	// Two identical jobs, but each simulation ran once: the second job was
	// pure cache hits.
	if got := snap.Counters["sim21164.runs"]; got != 2 { // none + Simple
		t.Errorf("sim21164.runs = %d, want 2 (cells shared across jobs)", got)
	}
}

// TestJobListOrder checks GET /v1/jobs reports submission order.
func TestJobListOrder(t *testing.T) {
	mgr := NewManager(Config{QueueDepth: 8})
	defer shutdownNow(t, mgr)

	quick := JobSpec{Benchmarks: []string{"quick"}, Machines: []string{Machine21164}, Configs: []string{ConfigNone}}
	var want []string
	for i := 0; i < 3; i++ {
		j, err := mgr.Submit(quick)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, j.ID)
	}
	list := mgr.List()
	if len(list) != len(want) {
		t.Fatalf("List has %d jobs, want %d", len(list), len(want))
	}
	for i, st := range list {
		if st.ID != want[i] {
			t.Errorf("List[%d] = %s, want %s", i, st.ID, want[i])
		}
	}
}
