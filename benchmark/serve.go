package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lvp/client"
	"lvp/internal/obs"
	"lvp/internal/serve"
)

// servePass starts lvpd in this process (a manager with default settings but
// the pass's workers, behind the HTTP handler on a loopback port) and sends
// it the pass's jobs from closed-loop clients: each client submits its next
// job only after the previous one's done event arrived. One op is one job,
// timed from Submit to its done event.
func servePass(a passArgs, tracer *obs.Tracer, r *passResult) error {
	jobs, err := genJobs(a.Seed, a.Workload)
	if err != nil {
		return err
	}
	mgr := serve.NewManager(serve.Config{Workers: a.Workers, Tracer: tracer})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.NewHandler(mgr)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := errors.Join(srv.Shutdown(ctx), mgr.Shutdown(ctx))
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}
	cl, err := client.New(base)
	if err != nil {
		return errors.Join(err, stop())
	}

	ctx := context.Background()
	outs := make([]jobOutcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	clients := min(serveClients, runtime.NumCPU())
	r.begin()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				outs[i] = runJob(ctx, cl, jobs[i])
			}
		}()
	}
	wg.Wait()
	r.end()

	// Every job must end done with one cell event per cell, and a cell
	// asked for at the same scale must always come back as the same bytes.
	seen := map[string][32]byte{}
	var submits, lat []float64
	for i, o := range outs {
		err := o.err
		for _, c := range o.cells {
			if prev, ok := seen[c.key]; !ok {
				seen[c.key] = c.sum
			} else if prev != c.sum && err == nil {
				err = fmt.Errorf("job %d: %s returned different bytes than before", i, c.key)
			}
		}
		r.op(o.latency, err)
		submits = append(submits, float64(o.submit)/1e6)
		lat = append(lat, float64(o.latency)/1e6)
	}
	digest := sha256.New()
	for _, k := range slices.Sorted(maps.Keys(seen)) {
		fmt.Fprintf(digest, "%s %x\n", k, seen[k])
	}
	r.Digest = hex.EncodeToString(digest.Sum(nil))

	snap, err := scrapeMetrics(base)
	if err != nil {
		return errors.Join(err, stop())
	}
	if err := stop(); err != nil {
		return err
	}
	r.BusyS = engineLayers(r.Layers, snap)
	var gets, hits int64
	for _, c := range []string{"traces", "annotations", "sims620", "sims21164"} {
		gets += snap.Gauges["cache."+c+".gets"].Value
		hits += snap.Gauges["cache."+c+".hits"].Value
	}
	r.Layers["exp.cache_hit_ratio"] = ratio(float64(hits), float64(gets))
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	jobWall := snap.Histograms["serve.job.wall_ns"]
	r.Layers["serve.job_ms_p50"] = percentile(lat, 50)
	r.Layers["serve.job_ms_p99"] = percentile(lat, 99)
	r.Layers["serve.submit_ms_p50"] = percentile(submits, 50)
	r.Layers["serve.queue_wait_ms_p99"] = ms(snap.Histograms["serve.job.queue_wait_ns"].P99)
	r.Layers["serve.job_wall_ms_p50"] = ms(jobWall.P50)
	r.Layers["serve.job_wall_ms_p99"] = ms(jobWall.P99)
	r.Layers["serve.client_overhead_ms_p50"] = percentile(lat, 50) - ms(jobWall.P50)
	return nil
}

// serveClients is the number of closed-loop clients; the load never uses
// more goroutines than the host has CPUs.
const serveClients = 2

// cellResult is one cell event's identity (cell and scale) and the hash of
// its result bytes.
type cellResult struct {
	key string
	sum [32]byte
}

type jobOutcome struct {
	submit, latency time.Duration
	cells           []cellResult
	err             error
}

// runJob submits one job and follows its result stream to the done event.
func runJob(ctx context.Context, cl *client.Client, spec serve.JobSpec) jobOutcome {
	var o jobOutcome
	start := time.Now()
	st, err := cl.Submit(ctx, spec)
	o.submit = time.Since(start)
	if err != nil {
		o.latency, o.err = o.submit, err
		return o
	}
	scale := max(spec.Scale, 1)
	var state, stateErr string
	err = cl.Stream(ctx, st.ID, func(ev client.Event) error {
		switch ev.Type {
		case "cell":
			if ev.Error != "" {
				return fmt.Errorf("cell %d: %s", ev.Index, ev.Error)
			}
			o.cells = append(o.cells, cellResult{
				key: fmt.Sprintf("%s @%d", ev.Cell, scale),
				sum: sha256.Sum256(ev.Result),
			})
		case "done":
			o.latency = time.Since(start)
			state, stateErr = ev.State, ev.Error
		}
		return nil
	})
	switch {
	case err != nil:
		o.err = err
	case state != serve.StateDone:
		o.err = fmt.Errorf("job %s ended %q: %s", st.ID, state, stateErr)
	case len(o.cells) != len(spec.Cells()):
		o.err = fmt.Errorf("job %s: %d cell events for %d cells", st.ID, len(o.cells), len(spec.Cells()))
	}
	if o.latency == 0 {
		o.latency = time.Since(start)
	}
	return o
}

// scrapeMetrics reads lvpd's GET /metrics snapshot.
func scrapeMetrics(base string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}
