package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gocured"
	"gocured/internal/corpus"
	"gocured/internal/interp"
	"gocured/internal/loadgen"
	"gocured/internal/pipeline"
	"gocured/internal/store"
)

// server is one ccserve process started by the benchmark.
type server struct {
	cmd *exec.Cmd
	url string
}

// serverArgs are the ccserve flags every serve run uses: one worker per
// core and an artifact store, so edits replay stored summaries.
func serverArgs(addr, storeDir string, workers int) []string {
	return []string{"-addr", addr, "-j", strconv.Itoa(workers), "-store-dir", storeDir}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer starts ccserve with a fresh store and waits until /readyz
// admits traffic. Its logs are discarded.
func startServer(ctx context.Context, cfg *config) (*server, error) {
	storeDir, err := os.MkdirTemp(cfg.tmp, "store-")
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := serverArgs(addr, storeDir, cfg.workers)
	cmd := exec.Command(cfg.ccserve, args...)
	// The server dies with the benchmark even if the benchmark crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ccserve: %w", err)
	}
	s := &server{cmd: cmd, url: "http://" + addr}
	if err := loadgen.WaitReady(ctx, nil, s.url, 30*time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the server down gracefully and waits for it to exit; a
// server that does not exit within ten seconds is killed.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // the exit status of a stopped server carries nothing
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// totalAllocBytes reads the Go heap bytes the server has allocated so far
// from its expvar memstats.
func (s *server) totalAllocBytes(client *http.Client) (uint64, error) {
	resp, err := client.Get(s.url + "/debug/vars")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var vars struct {
		Memstats struct{ TotalAlloc uint64 } `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return vars.Memstats.TotalAlloc, nil
}

// cureReply is the part of ccserve's POST /cure reply the oracle reads.
type cureReply struct {
	CacheHit bool `json:"cache_hit"`
	Run      *struct {
		ExitCode  int    `json:"exit_code"`
		Trapped   bool   `json:"trapped"`
		SimCycles uint64 `json:"sim_cycles"`
	} `json:"run"`
}

type cureBody struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Run    bool   `json:"run,omitempty"`
	Mode   string `json:"mode,omitempty"`
	Stdin  string `json:"stdin,omitempty"`
}

// post sends one POST /cure and returns its round-trip time.
func post(client *http.Client, url string, body cureBody) (float64, *cureReply, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	resp, err := client.Post(url+"/cure", "application/json", bytes.NewReader(data))
	if err != nil {
		return msSince(t0), nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	ms := msSince(t0)
	if err != nil {
		return ms, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return ms, nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, payload)
	}
	var r cureReply
	if err := json.Unmarshal(payload, &r); err != nil {
		return ms, nil, fmt.Errorf("bad reply: %w", err)
	}
	return ms, &r, nil
}

func (req request) body() cureBody {
	b := cureBody{Name: req.Name, Source: req.Consts.source()}
	if req.Run {
		b.Run, b.Mode = true, "cured"
	}
	return b
}

// checkReply is the serve oracle: every reply is a 200; a run-class reply's
// exit code is the one computed in Go from the unit's constants; a
// hit-class reply was served from the memory cache.
func checkReply(req request, r *cureReply, err error) error {
	switch {
	case err != nil:
		return err
	case req.Class == classHit && !r.CacheHit:
		return errors.New("hit-class reply was not a cache hit")
	case req.Class == classRun && (r.Run == nil || r.Run.Trapped || r.Run.ExitCode != req.WantExit):
		return fmt.Errorf("run-class reply does not exit %d: %+v", req.WantExit, r.Run)
	}
	return nil
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		},
	}
}

func runServe(cfg *config, rep *report) error {
	ctx := context.Background()
	client := newClient(cfg.workers)
	defer client.CloseIdleConnections()
	g := newReqGen(cfg.seed)
	// Set-up: start the server and warm it (compile the hit unit, build its
	// VM module, store an edit base). Every set-up but the last is stopped.
	var warm []request
	srv, setupS, err := timedSetup(cfg.setupReps, func() (*server, error) {
		s, err := startServer(ctx, cfg)
		if err != nil {
			return nil, err
		}
		g = newReqGen(cfg.seed)
		warm = g.warmup()
		for _, req := range warm {
			_, r, err := post(client, s.url, req.body())
			if err := checkReply(req, r, err); err != nil {
				s.stop()
				return nil, fmt.Errorf("warm-up %s request: %w", req.Class, err)
			}
		}
		return s, nil
	}, (*server).stop)
	if err != nil {
		return err
	}
	defer srv.stop()
	rep.host["ccserve"] = strings.Join(serverArgs("<addr>", "<tmp>", cfg.workers), " ")
	rep.values["setup_s"] = setupS
	o := &oracle{}
	if cfg.trace {
		return traceServe(cfg, rep, client, srv, g, warm, o)
	}

	var mu sync.Mutex
	lat := map[string][]float64{} // per-class latencies
	a0, err := srv.totalAllocBytes(client)
	if err != nil {
		return err
	}
	log := closedLoop(cfg.workers, g.stream, cfg.seconds, func(i int) (float64, bool) {
		mu.Lock()
		req := g.build(classes[i])
		mu.Unlock()
		ms, r, err := post(client, srv.url, req.body())
		err = checkReply(req, r, err)
		if !o.check(err == nil, "%s request: %v", req.Class, err) {
			ms = failedLatency
		}
		mu.Lock()
		lat[req.Class] = append(lat[req.Class], ms)
		mu.Unlock()
		return ms, err == nil
	})
	a1, err := srv.totalAllocBytes(client)
	if err != nil {
		return err
	}
	rep.addLoop(log, a1-a0)
	// The per-class medians are reported beside the listed metrics, which
	// must each be measured on every workload.
	for _, c := range classes {
		rep.notef("class %-4s p50 %.4f ms (n=%d)", c, median(lat[c]), len(lat[c]))
	}
	if rep.values["peak_rss_mb"], err = peakRSSMB(srv.pid()); err != nil {
		return err
	}
	rep.addOracle(o, false)
	after := &oracle{}
	checkServeExploit(client, srv, after)
	rep.addOracle(after, true)
	return nil
}

// checkServeExploit sends the ftpd exploit session to the server: the
// cured run must trap.
func checkServeExploit(client *http.Client, srv *server, o *oracle) {
	p := corpus.ByName("ftpd")
	_, r, err := post(client, srv.url, cureBody{Name: "ftpd.c", Source: p.Source, Run: true, Mode: "cured",
		Stdin: corpus.FtpdExploitInput})
	o.check(err == nil && r.Run != nil && r.Run.Trapped, "ftpd exploit session did not trap (err %v)", err)
}

// mirrorPipe is the traced driver's copy of the pipeline's request path:
// pipeline.CacheKey, a cache lookup that builds on a miss (replaying
// summaries from its own artifact store), then the run.
type mirrorPipe struct {
	arts           *store.Artifacts
	memo           map[pipeline.Key]*unit
	lookups, hits  int
	funcs, loaded  int
	checks, remove int
	ex             execCounters
}

// do handles one request as Runner.Do would and returns the outcome of
// its run (nil without one). The caller opens the span of Runner.Do itself.
func (m *mirrorPipe) do(t *tracer, req request) (out *interp.Outcome, err error) {
	name, src, opts := req.Name, req.Consts.source(), gocured.Options{}
	var key pipeline.Key
	t.do("pipeline", func() { key = pipeline.CacheKey(name, src, opts) })
	var u *unit
	t.do("pipeline", func() {
		m.lookups++
		if u = m.memo[key]; u != nil {
			m.hits++
			return
		}
		if u, err = build(t, name, src, opts, m.arts.ForOptions(opts)); err == nil {
			m.memo[key] = u
			m.funcs += u.incr.Funcs
			m.loaded += u.incr.Loaded
			m.checks += u.checksInserted()
			m.remove += u.checksRemoved()
		}
	})
	if err != nil || !req.Run {
		return nil, err
	}
	out, err = u.runCured(t, interp.Config{StepLimit: 200_000_000})
	if err == nil {
		m.ex.add(out)
	}
	return out, err
}

func traceServe(cfg *config, rep *report, client *http.Client, srv *server, g *reqGen, warm []request, o *oracle) error {
	half := cfg.seconds / 2
	// Untraced phase: one client, round trips only.
	logA := closedLoop(1, g.stream, half, func(i int) (float64, bool) {
		req := g.build(classes[i])
		ms, r, err := post(client, srv.url, req.body())
		err = checkReply(req, r, err)
		return ms, o.check(err == nil, "%s request: %v", req.Class, err)
	})
	// Traced phase: each round trip is followed by the same request through
	// the traced driver; ccserve's self time is the round trip minus that
	// in-process replay.
	dir, err := os.MkdirTemp(cfg.tmp, "mirror-store-")
	if err != nil {
		return err
	}
	arts, err := pipeline.OpenStore(dir)
	if err != nil {
		return err
	}
	m := &mirrorPipe{arts: arts, memo: map[pipeline.Key]*unit{}}
	for _, req := range warm {
		if _, err := m.do(nil, req); err != nil {
			return fmt.Errorf("mirror warm-up: %w", err)
		}
	}
	m = &mirrorPipe{arts: m.arts, memo: m.memo} // count the traced phase only
	t := newTracer()
	var replayMS, curedCycles float64
	logB := closedLoop(1, g.stream, half, func(i int) (float64, bool) {
		req := g.build(classes[i])
		h := t.begin("op")
		var r *cureReply
		var err error
		rtt := t.do("ccserve", func() { _, r, err = post(client, srv.url, req.body()) })
		err = checkReply(req, r, err)
		var out *interp.Outcome
		var merr error
		replayMS += t.do("pipeline", func() { out, merr = m.do(t, req) })
		t.end(h)
		if err == nil && req.Run && (merr != nil || out.Trap != nil || out.ExitCode != req.WantExit) {
			err = fmt.Errorf("traced driver run: exit %v, %v", out, merr)
		}
		if err == nil && req.Run {
			curedCycles = float64(r.Run.SimCycles)
		}
		return rtt, o.check(err == nil, "%s request: %v", req.Class, err)
	})
	rep.addPhases(logA, logB)
	rep.addOracle(o, false)
	after := &oracle{}
	checkServeExploit(client, srv, after)
	rep.addOracle(after, true)

	slowdown := 0.0
	if u := m.memo[pipeline.CacheKey(warm[1].Name, warm[1].Consts.source(), gocured.Options{})]; u != nil && curedCycles > 0 {
		raw, err := u.runRaw(interp.Config{StepLimit: 200_000_000})
		if err != nil {
			return err
		}
		slowdown = curedCycles / float64(raw.Counters.Cost)
	}
	tot := t.totals()
	if c := tot["ccserve"]; c != nil {
		c.SelfMS -= replayMS
	}
	n := float64(max(len(logB.lat), 1))
	counters := m.ex.counters(len(logB.lat), selfMS(tot, "interp.exec"))
	counters["interp.exec.sim_slowdown"] = slowdown
	counters["pipeline.cache_hit_ratio"] = ratio(float64(m.hits), float64(m.lookups))
	counters["infer.replayed_frac"] = ratio(float64(m.loaded), float64(m.funcs))
	counters["instrument.checks_inserted"] = float64(m.checks) / n
	counters["instrument.optimize.checks_removed"] = float64(m.remove) / n
	// ccserve's self time absorbs everything the replay does not explain,
	// so shares divide by the traced round trip; overhead_frac compares it
	// with the untraced one.
	return rep.finishTrace(t, tot, ledgerInput{Ops: len(logB.lat), OpMS: mean(logB.lat), E2EOpMS: mean(logA.lat),
		TracedOpMS: mean(logB.lat), Counters: counters})
}
