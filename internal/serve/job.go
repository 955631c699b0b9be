// Package serve is the lvpd serving subsystem: a job manager that runs
// experiment cells (benchmark × machine × LVP config, plus locality sweeps)
// asynchronously on the shared experiment engine, and an HTTP API
// (http.go) that submits jobs, streams per-cell results as NDJSON, and
// exposes health and metrics endpoints.
//
// The serving contract extends the engine's determinism guarantee across
// the wire: a cell's result payload is the json.Marshal of the exact struct
// the same cell produces through exp.Suite directly, so byte-identity holds
// end to end (the e2e test asserts it). Admission control is a bounded
// queue — a full queue rejects with ErrQueueFull, which the HTTP layer maps
// to 429 + Retry-After — and every job runs under its own context with a
// per-job timeout, mid-flight cancellation, and graceful drain on shutdown.
package serve

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"lvp/internal/axp21164"
	"lvp/internal/bench"
	"lvp/internal/exp"
	"lvp/internal/locality"
	"lvp/internal/lvp"
	"lvp/internal/obs"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
)

// Machine names accepted in JobSpec.Machines.
const (
	Machine620     = "620"
	Machine620Plus = "620+"
	Machine21164   = "21164"
)

// ConfigNone is the pseudo LVP config selecting a machine without LVP
// hardware (the baseline the paper's speedups are measured against).
const ConfigNone = "none"

// JobSpec is the wire form of one experiment job. It expands to a
// deterministic, index-ordered list of cells (see Cells):
//
//   - one simulation cell per benchmark × machine × config, in spec order;
//   - one locality cell per benchmark × locality target, measuring value
//     locality at the given history depths;
//   - one zoo cell per benchmark × predictor family, measuring that
//     family's coverage/accuracy and table-interference counters.
//
// Scale multiplies benchmark run lengths (0 means 1); TimeoutMS bounds the
// job's wall time (0 selects the server default).
type JobSpec struct {
	Benchmarks      []string `json:"benchmarks"`
	Machines        []string `json:"machines,omitempty"`
	Configs         []string `json:"configs,omitempty"`
	LocalityTargets []string `json:"locality_targets,omitempty"`
	LocalityDepths  []int    `json:"locality_depths,omitempty"`
	Predictors      []string `json:"predictors,omitempty"`
	Scale           int      `json:"scale,omitempty"`
	TimeoutMS       int64    `json:"timeout_ms,omitempty"`
}

// Cell is one unit of work: a single machine simulation, one locality
// sweep, or one predictor-zoo measurement. Kind is "sim", "locality" or
// "zoo".
type Cell struct {
	Kind      string `json:"kind"`
	Bench     string `json:"bench"`
	Machine   string `json:"machine,omitempty"`
	Config    string `json:"config,omitempty"`
	Target    string `json:"target,omitempty"`
	Depths    []int  `json:"depths,omitempty"`
	Predictor string `json:"predictor,omitempty"`
}

func (c Cell) String() string {
	switch c.Kind {
	case "locality":
		return fmt.Sprintf("locality %s/%s depths %v", c.Bench, c.Target, c.Depths)
	case "zoo":
		return fmt.Sprintf("zoo %s/%s", c.Bench, c.Predictor)
	}
	return fmt.Sprintf("sim %s/%s/%s", c.Bench, c.Machine, c.Config)
}

// Validate checks one cell against the engine's registries, so a cell can
// be admitted on its own (the distributed cell-execution endpoint) without
// wrapping it in a JobSpec.
func (c Cell) Validate() error {
	if _, err := bench.ByName(c.Bench); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	switch c.Kind {
	case "sim":
		switch c.Machine {
		case Machine620, Machine620Plus, Machine21164:
		default:
			return fmt.Errorf("serve: unknown machine %q (want %s, %s or %s)",
				c.Machine, Machine620, Machine620Plus, Machine21164)
		}
		if c.Config != ConfigNone {
			if _, err := lvp.ByName(c.Config); err != nil {
				return fmt.Errorf("serve: %w", err)
			}
		}
	case "locality":
		if _, err := targetByName(c.Target); err != nil {
			return err
		}
		if len(c.Depths) == 0 {
			return fmt.Errorf("serve: locality cell needs at least one depth")
		}
		for _, d := range c.Depths {
			if err := validDepth(d); err != nil {
				return err
			}
		}
	case "zoo":
		if _, err := lvp.FamilyByName(c.Predictor); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	default:
		return fmt.Errorf("serve: unknown cell kind %q", c.Kind)
	}
	return nil
}

// validDepth checks a locality history depth against [1, locality.MaxDepth].
func validDepth(d int) error {
	if d < 1 || d > locality.MaxDepth {
		return fmt.Errorf("serve: locality depth %d out of range (want 1..%d, locality.MaxDepth)", d, locality.MaxDepth)
	}
	return nil
}

// CellRequest is the wire form of the internal cell-execution endpoint
// (POST /v1/cells): one cell executed synchronously at one scale. The
// response body on success is the raw result JSON — byte-identical to the
// payload the same cell produces inside a job stream.
type CellRequest struct {
	Cell  Cell `json:"cell"`
	Scale int  `json:"scale,omitempty"`
}

// Validate checks every name in the spec against the engine's registries.
func (s JobSpec) Validate() error {
	if len(s.Benchmarks) == 0 {
		return fmt.Errorf("serve: job needs at least one benchmark")
	}
	for _, b := range s.Benchmarks {
		if _, err := bench.ByName(b); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	for _, m := range s.Machines {
		switch m {
		case Machine620, Machine620Plus, Machine21164:
		default:
			return fmt.Errorf("serve: unknown machine %q (want %s, %s or %s)",
				m, Machine620, Machine620Plus, Machine21164)
		}
	}
	for _, c := range s.Configs {
		if c == ConfigNone {
			continue
		}
		if _, err := lvp.ByName(c); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	for _, tg := range s.LocalityTargets {
		if _, err := targetByName(tg); err != nil {
			return err
		}
	}
	for _, d := range s.LocalityDepths {
		if err := validDepth(d); err != nil {
			return err
		}
	}
	for _, p := range s.Predictors {
		if _, err := lvp.FamilyByName(p); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	if (len(s.Machines) == 0) != (len(s.Configs) == 0) {
		return fmt.Errorf("serve: machines and configs must be given together")
	}
	if (len(s.LocalityTargets) > 0) && len(s.LocalityDepths) == 0 {
		return fmt.Errorf("serve: locality_targets given without locality_depths")
	}
	if len(s.Cells()) == 0 {
		return fmt.Errorf("serve: job expands to zero cells (give machines+configs, locality_targets+locality_depths, and/or predictors)")
	}
	if s.Scale < 0 {
		return fmt.Errorf("serve: scale %d out of range", s.Scale)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("serve: timeout_ms %d out of range", s.TimeoutMS)
	}
	return nil
}

// Cells expands the spec into its deterministic cell list: simulation cells
// first (benchmark-major, then machine, then config, all in spec order),
// then locality cells (benchmark-major, then target), then predictor-zoo
// cells (benchmark-major, then family).
func (s JobSpec) Cells() []Cell {
	var cells []Cell
	for _, b := range s.Benchmarks {
		for _, m := range s.Machines {
			for _, c := range s.Configs {
				cells = append(cells, Cell{Kind: "sim", Bench: b, Machine: m, Config: c})
			}
		}
	}
	for _, b := range s.Benchmarks {
		for _, tg := range s.LocalityTargets {
			cells = append(cells, Cell{Kind: "locality", Bench: b, Target: tg, Depths: s.LocalityDepths})
		}
	}
	for _, b := range s.Benchmarks {
		for _, p := range s.Predictors {
			cells = append(cells, Cell{Kind: "zoo", Bench: b, Predictor: p})
		}
	}
	return cells
}

func targetByName(name string) (prog.Target, error) {
	for _, t := range prog.Targets {
		if t.Name == name {
			return t, nil
		}
	}
	return prog.Target{}, fmt.Errorf("serve: unknown target %q (want axp or ppc)", name)
}

// computeCell runs one cell on a (context-scoped) suite view and marshals
// its result — exactly json.Marshal of the struct exp.Suite returns, so the
// streamed bytes match a direct engine run.
func computeCell(s *exp.Suite, c Cell) (json.RawMessage, error) {
	switch c.Kind {
	case "sim":
		var cfgPtr *lvp.Config
		if c.Config != ConfigNone {
			cfg, err := lvp.ByName(c.Config)
			if err != nil {
				return nil, err
			}
			cfgPtr = &cfg
		}
		switch c.Machine {
		case Machine620:
			return marshal(s.Sim620(c.Bench, ppc620.Config620(), cfgPtr))
		case Machine620Plus:
			return marshal(s.Sim620(c.Bench, ppc620.Config620Plus(), cfgPtr))
		case Machine21164:
			return marshal(s.Sim21164(c.Bench, axp21164.Config21164(), cfgPtr))
		}
		return nil, fmt.Errorf("serve: unknown machine %q", c.Machine)
	case "locality":
		tg, err := targetByName(c.Target)
		if err != nil {
			return nil, err
		}
		t, err := s.Trace(c.Bench, tg)
		if err != nil {
			return nil, err
		}
		return json.Marshal(locality.Measure(t, locality.DefaultEntries, c.Depths...))
	case "zoo":
		return marshal(s.ZooCell(c.Bench, c.Predictor))
	}
	return nil, fmt.Errorf("serve: unknown cell kind %q", c.Kind)
}

// marshal is json.Marshal of a cell result, or the error that replaced it.
func marshal[T any](v T, err error) (json.RawMessage, error) {
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobStatus is the wire form of a job's lifecycle snapshot.
type JobStatus struct {
	ID        string    `json:"id"`
	TraceID   string    `json:"trace_id,omitempty"`
	State     string    `json:"state"`
	Error     string    `json:"error,omitempty"`
	Cells     int       `json:"cells"`
	CellsDone int       `json:"cells_done"`
	Created   time.Time `json:"created"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
}

// Event is one NDJSON line of a job's result stream: a "cell" event per
// completed cell (in cell-index order, carrying either the result payload
// or that cell's error), then exactly one "done" event with the job's final
// state.
type Event struct {
	Type   string          `json:"type"`
	Index  int             `json:"index,omitempty"`
	Cell   *Cell           `json:"cell,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	State  string          `json:"state,omitempty"`
}

// cellOutcome is one cell's stored result or error.
type cellOutcome struct {
	result json.RawMessage
	err    string
}

// Job is one submitted experiment job. All mutable state is guarded by mu;
// per-cell readiness and terminal completion are broadcast through closed
// channels so any number of result streamers can follow along.
type Job struct {
	ID    string
	Spec  JobSpec
	Cells []Cell
	// TraceID is the job's request-scoped trace identity: the X-Request-Id
	// of the submitting HTTP request (minted server-side otherwise). Spans
	// recorded for the job carry it, and the timeline endpoint reports it.
	TraceID string

	// rec is the job's span flight recorder: a bounded ring of completed
	// spans, always on, backing GET /v1/jobs/{id}/timeline.
	rec *obs.FlightRecorder

	mu        sync.Mutex
	state     string
	errMsg    string
	created   time.Time
	started   time.Time
	finished  time.Time
	doneCells int
	cancelled bool   // Cancel was requested (possibly pre-run)
	cancel    func() // cancels the running job's context
	outcomes  []cellOutcome
	ready     []chan struct{} // ready[i] closed once outcomes[i] is valid
	done      chan struct{}   // closed when the job reaches a terminal state
}

func newJob(id, traceID string, spec JobSpec, cells []Cell, flightSpans int, now time.Time) *Job {
	j := &Job{
		ID:       id,
		Spec:     spec,
		Cells:    cells,
		TraceID:  traceID,
		rec:      obs.NewFlightRecorder(flightSpans),
		state:    StateQueued,
		created:  now,
		outcomes: make([]cellOutcome, len(cells)),
		ready:    make([]chan struct{}, len(cells)),
		done:     make(chan struct{}),
	}
	for i := range j.ready {
		j.ready[i] = make(chan struct{})
	}
	return j
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:        j.ID,
		TraceID:   j.TraceID,
		State:     j.state,
		Error:     j.errMsg,
		Cells:     len(j.Cells),
		CellsDone: j.doneCells,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// setOutcome stores cell i's result and wakes its waiters.
func (j *Job) setOutcome(i int, res json.RawMessage, err error) {
	j.mu.Lock()
	if err != nil {
		j.outcomes[i] = cellOutcome{err: err.Error()}
	} else {
		j.outcomes[i] = cellOutcome{result: res}
	}
	j.doneCells++
	j.mu.Unlock()
	close(j.ready[i])
}

// outcome reads cell i's outcome; valid only after ready[i] is closed.
func (j *Job) outcome(i int) cellOutcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.outcomes[i]
}
