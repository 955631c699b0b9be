package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"lvp/internal/exp"
	"lvp/internal/obs"
	"lvp/internal/par"
)

// Admission errors. The HTTP layer maps ErrQueueFull to 429 + Retry-After
// and ErrDraining to 503.
var (
	ErrQueueFull = errors.New("serve: job queue full")
	ErrDraining  = errors.New("serve: server draining, not accepting jobs")
	ErrNotFound  = errors.New("serve: no such job")
	// ErrTenantLimited is returned when a tenant's token bucket is empty;
	// the HTTP layer maps it to 429 with a Retry-After hint sized to the
	// bucket's refill.
	ErrTenantLimited = errors.New("serve: tenant over quota")
)

// CellRunner computes one cell at one scale. The Manager's default runner
// executes cells locally on the shared per-scale suites; a distributed
// coordinator installs a runner that dispatches to a worker fleet instead.
// The returned bytes must be the cell's canonical result JSON (the
// json.Marshal of the engine's struct) — the byte-identity contract rests
// on every runner agreeing on them.
type CellRunner func(ctx context.Context, cell Cell, scale int) (json.RawMessage, error)

// ResultStore is the content-addressed result cache consulted before a cell
// is computed (or dispatched) and populated after it succeeds. Implementations
// must be safe for concurrent use; internal/dist provides the LRU + disk one.
type ResultStore interface {
	Get(cell Cell, scale int) (json.RawMessage, bool)
	Put(cell Cell, scale int, res json.RawMessage)
}

// Config tunes a Manager. Zero values select the documented defaults.
type Config struct {
	// QueueDepth bounds the number of accepted-but-not-started jobs
	// (default 16). A full queue rejects submissions with ErrQueueFull.
	QueueDepth int
	// Runners is the number of jobs executed concurrently (default 2).
	Runners int
	// Workers bounds each job's cell fan-out and its suite's internal
	// pool; <= 0 selects the GOMAXPROCS default.
	Workers int
	// MaxScale caps JobSpec.Scale (default 8).
	MaxScale int
	// DefaultTimeout applies to jobs that don't set TimeoutMS
	// (default 5m); MaxTimeout caps what a job may request (default 30m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetryAfter is the backoff hint returned with queue-full rejections
	// (default 1s).
	RetryAfter time.Duration
	// Metrics receives serving and engine telemetry; nil allocates a
	// fresh registry.
	Metrics *obs.Registry
	// Tracer, when non-nil, emits structured JSONL events from the engine
	// and the span layer on its enabled channels (lvpd -trace/-trace-out).
	// Observability never affects job results.
	Tracer *obs.Tracer
	// AccessLog, when non-nil, receives one structured line per HTTP
	// request (lvpd -access-log).
	AccessLog *slog.Logger
	// FlightSpans bounds each job's span flight recorder (<= 0 selects
	// obs.DefaultFlightSpans).
	FlightSpans int
	// CellRunner, when non-nil, replaces local computation for every cell
	// (coordinator mode: cells are dispatched to a worker fleet). Nil runs
	// cells on the shared per-scale suites in this process.
	CellRunner CellRunner
	// Store, when non-nil, is the content-addressed result cache: every
	// cell is looked up before it runs and stored after it succeeds, in
	// both the job path and the cell-execution endpoint.
	Store ResultStore
	// TenantRate > 0 enables per-tenant admission ahead of the job queue:
	// each tenant (X-Tenant header; empty means the anonymous tenant) gets
	// a token bucket refilled at TenantRate jobs/second with TenantBurst
	// capacity (<= 0 selects DefaultTenantBurst). Exhausted buckets reject
	// with ErrTenantLimited before the job touches the queue.
	TenantRate  float64
	TenantBurst int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Runners <= 0 {
		c.Runners = 2
	}
	if c.MaxScale <= 0 {
		c.MaxScale = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// Manager owns the job queue and the per-scale experiment suites. Suites
// (and therefore traces, annotations and simulations) are shared across
// jobs: two jobs asking for the same cell trigger one build, courtesy of
// the engine's single-flight caches.
type Manager struct {
	cfg     Config
	metrics *obs.Registry

	// baseCtx parents every job context; stopAll cancels it (hard stop
	// after the drain deadline).
	baseCtx context.Context
	stopAll context.CancelFunc

	queue chan *Job
	wg    sync.WaitGroup // runner goroutines

	// tenants is the per-tenant admission limiter; nil when quotas are
	// disabled (TenantRate <= 0).
	tenants *tenantLimiter

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for List
	nextID   int
	suites   map[int]*exp.Suite // keyed by scale
	draining bool

	// testJobStart, when non-nil, runs on the runner goroutine after a
	// job is dequeued and before it executes. Tests use it to hold a
	// runner busy deterministically (queue-full and drain scenarios).
	// Set it before the first Submit; the channel handoff orders the
	// runner's read after the write.
	testJobStart func(*Job)
}

// NewManager starts a manager with cfg.Runners runner goroutines.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:     cfg,
		metrics: cfg.Metrics,
		baseCtx: ctx,
		stopAll: cancel,
		queue:   make(chan *Job, cfg.QueueDepth),
		jobs:    map[string]*Job{},
		suites:  map[int]*exp.Suite{},
	}
	if cfg.TenantRate > 0 {
		m.tenants = newTenantLimiter(cfg.TenantRate, cfg.TenantBurst)
	}
	for i := 0; i < cfg.Runners; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	return m
}

// Metrics returns the manager's registry.
func (m *Manager) Metrics() *obs.Registry { return m.metrics }

// RetryAfter is the backoff hint for queue-full rejections.
func (m *Manager) RetryAfter() time.Duration { return m.cfg.RetryAfter }

// Draining reports whether Shutdown has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// suite returns the shared suite for one scale, creating it on first use.
func (m *Manager) suiteLocked(scale int) *exp.Suite {
	s := m.suites[scale]
	if s == nil {
		s = exp.NewSuiteParallel(scale, m.cfg.Workers)
		// All suites report into the manager's registry so /metrics is
		// one snapshot across every scale, and share the manager's
		// tracer so engine events carry through served jobs.
		s.Metrics = m.metrics
		s.Tracer = m.cfg.Tracer
		m.suites[scale] = s
	}
	return s
}

// Submit validates and enqueues a job with a freshly minted trace ID. It
// never blocks: a full queue returns ErrQueueFull immediately (the
// backpressure contract), a draining manager returns ErrDraining.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	return m.SubmitTraced(spec, "")
}

// SubmitTraced is Submit with an explicit trace identity: the HTTP layer
// passes the request's X-Request-Id so the ID echoed to the client is the ID
// on the job's spans and timeline. An empty traceID mints one.
func (m *Manager) SubmitTraced(spec JobSpec, traceID string) (*Job, error) {
	if err := spec.Validate(); err != nil {
		m.metrics.Counter("serve.jobs.invalid").Inc()
		return nil, err
	}
	if spec.Scale == 0 {
		spec.Scale = 1
	}
	if spec.Scale > m.cfg.MaxScale {
		m.metrics.Counter("serve.jobs.invalid").Inc()
		return nil, fmt.Errorf("serve: scale %d exceeds maximum %d", spec.Scale, m.cfg.MaxScale)
	}
	if traceID == "" {
		traceID = obs.NewTraceID()
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.metrics.Counter("serve.jobs.rejected_draining").Inc()
		return nil, ErrDraining
	}
	m.nextID++
	job := newJob(fmt.Sprintf("job-%06d", m.nextID), traceID, spec, spec.Cells(), m.cfg.FlightSpans, time.Now())
	select {
	case m.queue <- job:
	default:
		m.nextID--
		m.metrics.Counter("serve.jobs.rejected_full").Inc()
		return nil, ErrQueueFull
	}
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.metrics.Counter("serve.jobs.submitted").Inc()
	m.metrics.Gauge("serve.queue.depth").Set(int64(len(m.queue)))
	return job, nil
}

// Job looks a job up by ID.
func (m *Manager) Job(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j, nil
}

// List snapshots every job in submission order.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	order := append([]string(nil), m.order...)
	jobs := make([]*Job, len(order))
	for i, id := range order {
		jobs[i] = m.jobs[id]
	}
	m.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel requests cancellation: a queued job finishes as cancelled without
// running; a running job's context is cancelled and it stops at the next
// cell boundary. Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	j, err := m.Job(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.cancelled = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	m.metrics.Counter("serve.jobs.cancel_requests").Inc()
	return nil
}

// Shutdown drains: no new submissions, queued and running jobs finish
// normally. If ctx fires first every remaining job is cancelled, the exit
// is awaited, and ctx's error returned.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue)
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.stopAll()
		<-done
		return ctx.Err()
	}
}

// runner executes queued jobs until the queue is closed and drained.
func (m *Manager) runner() {
	defer m.wg.Done()
	for job := range m.queue {
		m.metrics.Gauge("serve.queue.depth").Set(int64(len(m.queue)))
		if m.testJobStart != nil {
			m.testJobStart(job)
		}
		m.runJob(job)
	}
}

// jobTimeout resolves one job's wall-clock bound.
func (m *Manager) jobTimeout(spec JobSpec) time.Duration {
	d := m.cfg.DefaultTimeout
	if spec.TimeoutMS > 0 {
		d = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	return min(d, m.cfg.MaxTimeout)
}

// runJob executes every cell of one job on the shared suite under the
// job's own context, then moves the job to its terminal state. The context
// carries the job's trace scope, so engine phase spans land in the job's
// flight recorder (and on the tracer's span channel when enabled): a root
// "job" span, a "queue-wait" span for time spent in the admission queue,
// and one "cell" span per cell parenting the engine's phase spans.
func (m *Manager) runJob(job *Job) {
	ctx, cancel := context.WithTimeout(m.baseCtx, m.jobTimeout(job.Spec))
	defer cancel()

	job.mu.Lock()
	if job.cancelled {
		// Cancelled while queued: never ran.
		job.state = StateCancelled
		job.errMsg = "cancelled before start"
		job.finished = time.Now()
		job.mu.Unlock()
		close(job.done)
		m.metrics.Counter("serve.jobs.cancelled").Inc()
		return
	}
	job.state = StateRunning
	job.started = time.Now()
	job.cancel = cancel
	job.mu.Unlock()

	m.metrics.Gauge("serve.jobs.running").Acquire()
	defer m.metrics.Gauge("serve.jobs.running").Release()

	ctx = obs.WithTrace(ctx, job.TraceID, m.cfg.Tracer, job.rec)
	jctx, endJob := obs.StartSpan(ctx, "job",
		slog.String("id", job.ID), slog.Int("cells", len(job.Cells)))
	queueWait := time.Since(job.created)
	obs.CompleteSpan(jctx, "queue-wait", job.created)
	m.metrics.Histogram("serve.job.queue_wait_ns").Observe(int64(queueWait))

	jobStart := time.Now()
	err := par.ForEach(jctx, m.cfg.Workers, len(job.Cells), nil, func(i int) error {
		cctx, endCell := obs.StartSpan(jctx, "cell",
			slog.Int("index", i), slog.String("cell", job.Cells[i].String()))
		res, cerr := m.runCell(cctx, job.Cells[i], job.Spec.Scale)
		endCell()
		job.setOutcome(i, res, cerr)
		if cerr != nil {
			m.metrics.Counter("serve.cells.failed").Inc()
			return fmt.Errorf("cell %d (%s): %w", i, job.Cells[i], cerr)
		}
		m.metrics.Counter("serve.cells.done").Inc()
		return nil
	})
	m.metrics.Histogram("serve.job.wall_ns").Observe(int64(time.Since(jobStart)))

	job.mu.Lock()
	job.finished = time.Now()
	switch {
	case job.cancelled:
		job.state = StateCancelled
		job.errMsg = "cancelled"
		m.metrics.Counter("serve.jobs.cancelled").Inc()
	case err != nil && errors.Is(err, context.DeadlineExceeded):
		job.state = StateFailed
		job.errMsg = fmt.Sprintf("timeout after %v", m.jobTimeout(job.Spec))
		m.metrics.Counter("serve.jobs.failed").Inc()
	case err != nil:
		job.state = StateFailed
		job.errMsg = err.Error()
		m.metrics.Counter("serve.jobs.failed").Inc()
	default:
		job.state = StateDone
		m.metrics.Counter("serve.jobs.completed").Inc()
	}
	job.mu.Unlock()
	endJob()
	close(job.done)
}

// runCell resolves one cell's result: the content-addressed store first
// (when configured), then the configured runner — the local suite by
// default, the distributed dispatcher in coordinator mode. Successful
// results are written back to the store, so repeat cells from any job (or
// any tenant) become cache hits. A panic inside the cell's computation fails
// that cell alone: it comes back as the cell's error, counted in
// serve.cell.panics, and the process keeps serving.
func (m *Manager) runCell(ctx context.Context, cell Cell, scale int) (res json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.metrics.Counter("serve.cell.panics").Inc()
			res, err = nil, fmt.Errorf("serve: cell %s panicked: %v", cell, r)
		}
	}()
	if scale <= 0 {
		scale = 1
	}
	if st := m.cfg.Store; st != nil {
		if res, ok := st.Get(cell, scale); ok {
			return res, nil
		}
	}
	res, err = m.computeOrDispatch(ctx, cell, scale)
	if err == nil && m.cfg.Store != nil {
		m.cfg.Store.Put(cell, scale, res)
	}
	return res, err
}

// computeOrDispatch runs one cell on the configured runner, defaulting to
// the local per-scale suite.
func (m *Manager) computeOrDispatch(ctx context.Context, cell Cell, scale int) (json.RawMessage, error) {
	if m.cfg.CellRunner != nil {
		return m.cfg.CellRunner(ctx, cell, scale)
	}
	m.mu.Lock()
	suite := m.suiteLocked(scale)
	m.mu.Unlock()
	return computeCell(suite.WithContext(ctx), cell)
}

// ValidateCell admission-checks one cell-execution request: registry names
// and the scale bound, the same checks a JobSpec gets.
func (m *Manager) ValidateCell(cell Cell, scale int) error {
	if err := cell.Validate(); err != nil {
		return err
	}
	if scale < 0 || scale > m.cfg.MaxScale {
		return fmt.Errorf("serve: scale %d out of range (want 0..%d)", scale, m.cfg.MaxScale)
	}
	return nil
}

// ExecCell executes one cell synchronously — the worker half of distributed
// mode, behind POST /v1/cells. It shares the store and suites with the job
// path, runs under the caller's context capped by the default job timeout,
// and counts into serve.cells.inflight (reported by Readiness, so
// coordinators can place cells on the least-loaded worker). traceID, when
// non-empty, scopes a span around the execution so worker-side phase spans
// parent under the coordinator job's trace.
func (m *Manager) ExecCell(ctx context.Context, cell Cell, scale int, traceID string) (json.RawMessage, error) {
	if m.Draining() {
		m.metrics.Counter("serve.cells.rejected_draining").Inc()
		return nil, ErrDraining
	}
	if err := m.ValidateCell(cell, scale); err != nil {
		m.metrics.Counter("serve.cells.invalid").Inc()
		return nil, err
	}
	if scale == 0 {
		scale = 1
	}
	g := m.metrics.Gauge("serve.cells.inflight")
	g.Acquire()
	defer g.Release()

	ctx, cancel := context.WithTimeout(ctx, m.cfg.DefaultTimeout)
	defer cancel()
	if traceID != "" {
		ctx = obs.WithTrace(ctx, traceID, m.cfg.Tracer, nil)
	}
	cctx, end := obs.StartSpan(ctx, "remote-cell", slog.String("cell", cell.String()))
	start := time.Now()
	res, err := m.runCell(cctx, cell, scale)
	end()
	m.metrics.Histogram("serve.cell.remote_wall_ns").Observe(int64(time.Since(start)))
	if err != nil {
		m.metrics.Counter("serve.cells.remote_failed").Inc()
		return nil, err
	}
	m.metrics.Counter("serve.cells.remote_done").Inc()
	return res, nil
}

// AdmitTenant spends one token from the tenant's bucket. With quotas
// disabled every tenant is admitted. The returned duration is the
// Retry-After hint for a rejection: how long until the bucket holds a
// whole token again.
func (m *Manager) AdmitTenant(tenant string) (bool, time.Duration) {
	if m.tenants == nil {
		return true, 0
	}
	ok, wait := m.tenants.admit(tenant)
	if ok {
		m.metrics.Counter("serve.tenant.admitted").Inc()
	} else {
		m.metrics.Counter("serve.tenant.rejected").Inc()
		m.metrics.Counter(obs.LabeledName("serve.tenant.rejected_by", "tenant", tenantLabel(tenant))).Inc()
	}
	return ok, wait
}

// Readiness is the JSON body of GET /readyz: up/down plus the load signals
// (queue depth, in-flight jobs and cells) a coordinator or external load
// balancer needs for least-loaded placement.
type Readiness struct {
	Ready         bool `json:"ready"`
	Draining      bool `json:"draining"`
	QueueDepth    int  `json:"queue_depth"`
	QueueCap      int  `json:"queue_cap"`
	RunningJobs   int  `json:"running_jobs"`
	InFlightCells int  `json:"in_flight_cells"`
	Runners       int  `json:"runners"`
}

// Load folds the readiness signals into one placement score: pending and
// running jobs plus cells being executed for remote coordinators.
func (r Readiness) Load() int {
	return r.QueueDepth + r.RunningJobs + r.InFlightCells
}

// Readiness snapshots the manager's admission state.
func (m *Manager) Readiness() Readiness {
	draining := m.Draining()
	return Readiness{
		Ready:         !draining,
		Draining:      draining,
		QueueDepth:    len(m.queue),
		QueueCap:      m.cfg.QueueDepth,
		RunningJobs:   int(m.metrics.Gauge("serve.jobs.running").Value()),
		InFlightCells: int(m.metrics.Gauge("serve.cells.inflight").Value()),
		Runners:       m.cfg.Runners,
	}
}

// FinalizeMetrics flushes suite cache-traffic gauges into the registry so
// a /metrics snapshot carries cache hit rates. Suites are visited in scale
// order; with several scales live the highest scale's numbers win the
// shared gauge names, which is deterministic if not exhaustive.
func (m *Manager) FinalizeMetrics() {
	m.mu.Lock()
	scales := make([]int, 0, len(m.suites))
	for scale := range m.suites {
		scales = append(scales, scale)
	}
	suites := make([]*exp.Suite, len(scales))
	sort.Ints(scales)
	for i, scale := range scales {
		suites[i] = m.suites[scale]
	}
	m.mu.Unlock()
	for _, s := range suites {
		s.FinalizeMetrics()
	}
}
