package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"lvp/internal/axp21164"
	"lvp/internal/exp"
	"lvp/internal/serve"
)

// fastRetry keeps test backoff in the microsecond range.
var fastRetry = RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}

// newTestClient wires a client to a test server with fast retries.
func newTestClient(t *testing.T, srv *httptest.Server) *Client {
	t.Helper()
	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c.WithHTTPClient(srv.Client()).WithRetry(fastRetry)
}

// TestSubmitRetriesQueueFull models lvpd backpressure: two 429s with
// Retry-After, then acceptance. The client must retry through them.
func TestSubmitRetriesQueueFull(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "serve: job queue full"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(JobStatus{ID: "job-000001", State: StateQueued})
	}))
	defer srv.Close()

	st, err := newTestClient(t, srv).Submit(context.Background(), JobSpec{Benchmarks: []string{"quick"}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-000001" {
		t.Fatalf("ID = %q", st.ID)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3 (two rejections + success)", n)
	}
}

// TestSubmitExhaustsRetries pins the give-up path: a permanently full
// queue fails after exactly MaxAttempts tries with the last error wrapped.
func TestSubmitExhaustsRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]string{"error": "serve: job queue full"})
	}))
	defer srv.Close()

	_, err := newTestClient(t, srv).Submit(context.Background(), JobSpec{Benchmarks: []string{"quick"}})
	if err == nil {
		t.Fatal("submit succeeded against a permanently full queue")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want wrapped 429 StatusError", err)
	}
	if n := calls.Load(); n != int64(fastRetry.MaxAttempts) {
		t.Fatalf("server saw %d calls, want %d", n, fastRetry.MaxAttempts)
	}
}

// TestBadRequestNotRetried pins that 400s fail immediately: retrying an
// invalid spec can never succeed.
func TestBadRequestNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "serve: job needs at least one benchmark"})
	}))
	defer srv.Close()

	_, err := newTestClient(t, srv).Submit(context.Background(), JobSpec{})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("400 retried: %d calls", n)
	}
}

// TestRetryOnServerFlap models a restarting daemon: 503, then healthy.
func TestRetryOnServerFlap(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode([]JobStatus{})
	}))
	defer srv.Close()

	if _, err := newTestClient(t, srv).List(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("server saw %d calls, want 2", n)
	}
}

// TestRetryHonorsContext checks cancellation wins over pending backoff.
func TestRetryHonorsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30") // force a long computed delay
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := newTestClient(t, srv).Submit(ctx, JobSpec{Benchmarks: []string{"quick"}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("client slept %v through its context", elapsed)
	}
}

// TestBackoffDelays pins the exponential schedule and the Retry-After
// override.
func TestBackoffDelays(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 6, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	for _, tc := range []struct {
		attempt    int
		retryAfter time.Duration
		want       time.Duration
	}{
		{0, 0, 100 * time.Millisecond},
		{1, 0, 200 * time.Millisecond},
		{2, 0, 400 * time.Millisecond},
		{4, 0, time.Second},                   // capped
		{0, 3 * time.Second, 3 * time.Second}, // server hint dominates
		{4, 500 * time.Millisecond, time.Second},
	} {
		if got := p.delay(tc.attempt, tc.retryAfter); got != tc.want {
			t.Errorf("delay(%d, %v) = %v, want %v", tc.attempt, tc.retryAfter, got, tc.want)
		}
	}
}

// TestClientRoundTrip is the client-side integration pass: a real manager
// behind a real handler, driven end to end through Run, with one cell's
// payload cross-checked against the engine.
func TestClientRoundTrip(t *testing.T) {
	mgr := serve.NewManager(serve.Config{Workers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	}()
	srv := httptest.NewServer(serve.NewHandler(mgr))
	defer srv.Close()
	c := newTestClient(t, srv)

	spec := JobSpec{
		Benchmarks: []string{"quick"},
		Machines:   []string{serve.Machine21164},
		Configs:    []string{serve.ConfigNone, "Simple"},
	}
	cells, status, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != StateDone || len(cells) != 2 {
		t.Fatalf("status = %+v with %d cells, want done with 2", status, len(cells))
	}

	// Cross-check the baseline cell against a direct engine run.
	direct := exp.NewSuiteParallel(1, 2)
	stats, err := direct.Sim21164("quick", axp21164.Config21164(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(stats)
	if string(cells[0].Result) != string(want) {
		t.Errorf("served cell 0 differs from direct engine run\n served: %s\n direct: %s", cells[0].Result, want)
	}

	// Cancel is a sensible no-op on a finished job.
	if _, err := c.Cancel(context.Background(), status.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Ready(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestStreamNotFound pins the non-retryable stream error path.
func TestStreamNotFound(t *testing.T) {
	mgr := serve.NewManager(serve.Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	}()
	srv := httptest.NewServer(serve.NewHandler(mgr))
	defer srv.Close()

	err := newTestClient(t, srv).Stream(context.Background(), "job-404", func(Event) error { return nil })
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("err = %v, want StatusError 404", err)
	}
}
