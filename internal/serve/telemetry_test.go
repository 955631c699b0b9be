package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"lvp/internal/exp"
	"lvp/internal/lvp"
	"lvp/internal/obs"
	"lvp/internal/ppc620"
)

// smallSpec is a one-cell job cheap enough to run to completion in every
// telemetry test.
func smallSpec() JobSpec {
	return JobSpec{
		Benchmarks: []string{"quick"},
		Machines:   []string{Machine620},
		Configs:    []string{"Simple"},
	}
}

// runJobToDone submits spec and follows its stream to the terminal event.
func runJobToDone(t *testing.T, httpc *http.Client, base string, spec JobSpec) (JobStatus, *http.Response) {
	t.Helper()
	st, resp := submit(t, httpc, base, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	events := streamEvents(t, httpc, base, st.ID)
	last := events[len(events)-1]
	if last.Type != "done" || last.State != StateDone {
		t.Fatalf("terminal event = %+v, want done/done", last)
	}
	return st, resp
}

// TestTimelineEndpoint is the flight-recorder acceptance gate: a completed
// job — without tracing enabled anywhere — serves an ordered span timeline
// whose root is the job span, with queue-wait, per-cell and engine-phase
// spans parented beneath it, under the trace ID the submit response echoed.
func TestTimelineEndpoint(t *testing.T) {
	mgr := NewManager(Config{Workers: 2})
	defer shutdownNow(t, mgr)
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()
	httpc := srv.Client()

	spec := smallSpec()
	spec.Machines = []string{Machine620, Machine21164}
	st, resp := runJobToDone(t, httpc, srv.URL, spec)

	rid := resp.Header.Get("X-Request-Id")
	if rid == "" {
		t.Fatal("submit response missing X-Request-Id")
	}
	if st.TraceID != rid {
		t.Fatalf("job trace_id %q != echoed X-Request-Id %q", st.TraceID, rid)
	}

	tlResp, err := httpc.Get(srv.URL + "/v1/jobs/" + st.ID + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer tlResp.Body.Close()
	if tlResp.StatusCode != http.StatusOK {
		t.Fatalf("timeline status = %d", tlResp.StatusCode)
	}
	var tl Timeline
	if err := json.NewDecoder(tlResp.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}

	if tl.Job != st.ID || tl.Trace != rid || tl.State != StateDone {
		t.Fatalf("timeline header wrong: %+v", tl)
	}
	if tl.Dropped != 0 {
		t.Errorf("small job dropped %d spans", tl.Dropped)
	}
	if !sort.SliceIsSorted(tl.Spans, func(a, b int) bool {
		if !tl.Spans[a].Start.Equal(tl.Spans[b].Start) {
			return tl.Spans[a].Start.Before(tl.Spans[b].Start)
		}
		return tl.Spans[a].ID < tl.Spans[b].ID
	}) {
		t.Error("timeline spans not ordered by start time")
	}

	byName := map[string][]TimelineSpan{}
	for _, s := range tl.Spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	jobs := byName["job"]
	if len(jobs) != 1 {
		t.Fatalf("got %d job spans, want 1 (names: %v)", len(jobs), spanNames(tl.Spans))
	}
	root := jobs[0]
	if root.Parent != 0 {
		t.Errorf("job span parent = %d, want 0 (root)", root.Parent)
	}
	if root.Attrs["id"] != st.ID {
		t.Errorf("job span id attr = %v, want %s", root.Attrs["id"], st.ID)
	}
	if len(byName["queue-wait"]) != 1 || byName["queue-wait"][0].Parent != root.ID {
		t.Errorf("queue-wait span missing or misparented: %+v", byName["queue-wait"])
	}
	cells := byName["cell"]
	if len(cells) != 2 {
		t.Fatalf("got %d cell spans, want 2", len(cells))
	}
	cellIDs := map[uint64]bool{}
	for _, c := range cells {
		if c.Parent != root.ID {
			t.Errorf("cell span %d parented to %d, want job span %d", c.ID, c.Parent, root.ID)
		}
		cellIDs[c.ID] = true
	}
	// Engine phases (trace, annotate, sim620/sim21164) run on the cell's
	// context view, so they sit under a cell span.
	phases := 0
	for _, name := range []string{"trace", "annotate", "sim620", "sim21164"} {
		for _, p := range byName[name] {
			phases++
			if !cellIDs[p.Parent] {
				t.Errorf("phase span %s/%d parented to %d, not a cell span", name, p.ID, p.Parent)
			}
			if p.DurationNS < 0 {
				t.Errorf("phase span %s has negative duration", name)
			}
		}
	}
	if phases == 0 {
		t.Errorf("no engine phase spans in timeline (names: %v)", spanNames(tl.Spans))
	}

	// Unknown job: 404.
	nf, err := httpc.Get(srv.URL + "/v1/jobs/job-999999/timeline")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown-job timeline status = %d, want 404", nf.StatusCode)
	}
}

func spanNames(spans []TimelineSpan) []string {
	names := make([]string, len(spans))
	for i, s := range spans {
		names[i] = s.Name
	}
	return names
}

// TestPrometheusEndpoint checks /metrics?format=prometheus after real
// traffic: valid exposition (version 0.0.4 content type), the job-wall
// histogram family with cumulative buckets ending at +Inf == _count, and
// the per-route/status HTTP latency histogram.
func TestPrometheusEndpoint(t *testing.T) {
	mgr := NewManager(Config{Workers: 2})
	defer shutdownNow(t, mgr)
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()
	httpc := srv.Client()

	runJobToDone(t, httpc, srv.URL, smallSpec())

	resp, err := httpc.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}

	type sample struct {
		labels map[string]string
		value  float64
	}
	families := map[string]string{}
	samples := map[string][]sample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			families[f[2]] = f[3]
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		labels := map[string]string{}
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			j := strings.LastIndexByte(line, '}')
			for _, kv := range splitPromLabels(line[i+1 : j]) {
				eq := strings.IndexByte(kv, '=')
				labels[kv[:eq]] = unescapePromValue(strings.Trim(kv[eq+1:], `"`))
			}
			line = line[j+1:]
		} else {
			fields := strings.Fields(line)
			name, line = fields[0], fields[1]
		}
		var v float64
		if _, err := fmtSscan(strings.TrimSpace(line), &v); err != nil {
			t.Fatalf("bad sample value in %q: %v", sc.Text(), err)
		}
		samples[name] = append(samples[name], sample{labels: labels, value: v})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if families["lvp_serve_job_wall_ns"] != "histogram" {
		t.Fatalf("lvp_serve_job_wall_ns not a histogram family (families: %d)", len(families))
	}
	buckets := samples["lvp_serve_job_wall_ns_bucket"]
	if len(buckets) < 2 {
		t.Fatalf("got %d wall histogram buckets, want >= 2", len(buckets))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].value < buckets[i-1].value {
			t.Errorf("bucket counts not cumulative at le=%s", buckets[i].labels["le"])
		}
	}
	lastB := buckets[len(buckets)-1]
	counts := samples["lvp_serve_job_wall_ns_count"]
	if lastB.labels["le"] != "+Inf" || len(counts) != 1 || lastB.value != counts[0].value {
		t.Errorf("+Inf bucket %v != _count %v", lastB, counts)
	}
	if counts[0].value < 1 {
		t.Errorf("job wall _count = %v, want >= 1", counts[0].value)
	}

	// The submit POST and the results GET both went through the telemetry
	// middleware before this scrape.
	if families["lvp_http_request_duration_ns"] != "histogram" {
		t.Fatal("http duration family missing or untyped")
	}
	foundSubmit := false
	for _, s := range samples["lvp_http_request_duration_ns_count"] {
		if s.labels["route"] == "POST /v1/jobs" && s.labels["status"] == "202" && s.value >= 1 {
			foundSubmit = true
		}
	}
	if !foundSubmit {
		t.Errorf("no http duration sample for POST /v1/jobs status 202: %v",
			samples["lvp_http_request_duration_ns_count"])
	}

	// The JSON default still works and now carries histograms.
	jr, err := httpc.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(jr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Histograms["serve.job.wall_ns"].Count < 1 {
		t.Error("JSON snapshot missing serve.job.wall_ns histogram")
	}
}

// splitPromLabels splits a raw label block on commas outside quotes.
func splitPromLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

func unescapePromValue(s string) string {
	r := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
	return r.Replace(s)
}

// fmtSscan parses a float the way the exposition format writes it.
func fmtSscan(s string, v *float64) (int, error) {
	if s == "+Inf" {
		*v = 1 << 62
		return 1, nil
	}
	var err error
	*v, err = parseFloat(s)
	if err != nil {
		return 0, err
	}
	return 1, nil
}

func parseFloat(s string) (float64, error) {
	var v float64
	err := json.Unmarshal([]byte(s), &v)
	return v, err
}

// syncBuffer is a goroutine-safe bytes.Buffer for log/trace sinks.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLog checks the -access-log middleware: one structured line per
// request with method, route pattern, status, byte count and request ID.
func TestAccessLog(t *testing.T) {
	var buf syncBuffer
	mgr := NewManager(Config{
		Workers:   2,
		AccessLog: slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	defer shutdownNow(t, mgr)
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()
	httpc := srv.Client()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "client-id-123")
	resp, err := httpc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d access-log lines, want 1: %q", len(lines), buf.String())
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("access-log line not JSON: %v", err)
	}
	checks := map[string]any{
		"method":     "GET",
		"path":       "/healthz",
		"route":      "GET /healthz",
		"status":     float64(200),
		"request_id": "client-id-123",
	}
	for k, want := range checks {
		if entry[k] != want {
			t.Errorf("access log %s = %v, want %v", k, entry[k], want)
		}
	}
	if entry["bytes"] == float64(0) {
		t.Error("access log bytes = 0, want the healthz body length")
	}
}

// TestRequestIDEcho checks sane inbound IDs are adopted and hostile ones
// replaced with a minted ID.
func TestRequestIDEcho(t *testing.T) {
	mgr := NewManager(Config{Workers: 2})
	defer shutdownNow(t, mgr)
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()
	httpc := srv.Client()

	cases := []struct {
		in    string
		adopt bool
	}{
		{"good-id_1.2", true},
		{"", false},
		{"has spaces", false},
		{`quote"inject`, false},
		{strings.Repeat("x", 65), false},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
		if c.in != "" {
			req.Header.Set("X-Request-Id", c.in)
		}
		resp, err := httpc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get("X-Request-Id")
		if got == "" {
			t.Errorf("in %q: response missing X-Request-Id", c.in)
			continue
		}
		if c.adopt && got != c.in {
			t.Errorf("in %q: echoed %q, want adopted", c.in, got)
		}
		if !c.adopt && got == c.in {
			t.Errorf("in %q: hostile ID adopted verbatim", c.in)
		}
	}
}

// TestTracingOnIdentity is the identity acceptance gate: with every trace
// channel enabled (spans included), served results are byte-identical to a
// direct engine run — observability never changes output.
func TestTracingOnIdentity(t *testing.T) {
	var sink syncBuffer
	mgr := NewManager(Config{
		Workers: 2,
		Tracer:  obs.NewTracer(&sink, obs.ChanAll),
	})
	defer shutdownNow(t, mgr)
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()
	httpc := srv.Client()

	spec := smallSpec()
	st, _ := runJobToDone(t, httpc, srv.URL, spec)
	events := streamEvents(t, httpc, srv.URL, st.ID)

	direct := exp.NewSuiteParallel(1, 2)
	cfg, err := lvp.ByName("Simple")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := direct.Sim620("quick", ppc620.Config620(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(stats)
	if got := events[0].Result; !bytes.Equal(got, want) {
		t.Errorf("traced served bytes differ from direct run:\n%s\nvs\n%s", got, want)
	}

	// The span channel actually emitted, and each span line carries the
	// job's trace ID.
	spanLines := 0
	for _, line := range strings.Split(strings.TrimSpace(sink.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("corrupt trace line %q: %v", line, err)
		}
		if ev["chan"] == "span" {
			spanLines++
			if ev["trace"] != st.TraceID {
				t.Errorf("span event trace = %v, want %s", ev["trace"], st.TraceID)
			}
		}
	}
	if spanLines == 0 {
		t.Error("no span events emitted with ChanAll tracing")
	}
}
