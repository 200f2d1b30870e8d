package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/serve"
)

// serve-sessions: the msimd session service in process (serve.New +
// Handler behind an httptest server, spool in a scratch directory), a
// closed loop of GOMAXPROCS clients that each post a scenario, wait for
// it to become terminal, and post the next. No chaos. One operation is
// one session: admission, compile, sliced execution and fsynced spool
// checkpoints dominate. Terminal states are read from the /wait bodies,
// not from /stats.
const (
	servePool            = 48  // distinct generated scenarios the clients draw from
	serveCheckpointEvery = 512 // run-slice size: several fsynced checkpoints per session
	serveSetups          = 25  // server boots (with first session) timed for setup_s
)

// scratchDir is where the benchmark keeps temporary files (the serve
// spool). It is relative to the working directory so that a run from a
// checkout stays inside it.
var scratchDir = filepath.Join(".bench_build", "tmp")

// serveScenario is one generated scenario and its in-process reference.
type serveScenario struct {
	name, src string
	nodes     int64
	ref       simState
}

// serveScenarios generates the pool: three in four are single-node spin
// loops of seeded length, the rest 4-node message exchanges of seeded
// size. Every scenario checks its own result with expect/check.
func serveScenarios(rng *rand.Rand, sc scale) []serveScenario {
	pool := make([]serveScenario, servePool)
	for i := range pool {
		name := fmt.Sprintf("bench%02d.wl", i)
		if i%4 == 3 {
			msgs := 4 + rng.IntN(7)
			pool[i] = serveScenario{name: name, nodes: 4, src: fmt.Sprintf(
				"workload \"bench exchange %d\"\nmesh 4\ngenerate ex exchange msgs=%d\nload ex on all\nrun 400000\ncheck exchange msgs=%d\n",
				i, msgs, msgs)}
			continue
		}
		iters := sc.of(600) + rng.Int64N(sc.of(800))
		pool[i] = serveScenario{name: name, nodes: 1, src: fmt.Sprintf(
			"workload \"bench spin %d\"\nmesh 1\ngenerate sp spinloop iters=%d\nload sp on node 0\nrun 1000000\nexpect reg node=0 cluster=0 reg=1 value=%d\n",
			i, iters, iters)}
	}
	return pool
}

// reference runs the scenario in process the way the service does —
// the same run-slice size, so the same sequence of machine.Run bounds —
// and records the exact outcome every session of it must reproduce.
func (sc *serveScenario) reference(bt *buildTimes) (*core.Sim, error) {
	t0 := now()
	compiled, err := core.ScenarioFromDSL(sc.name, sc.src)
	bt.compile += now() - t0
	bt.compiles++
	if err != nil {
		return nil, err
	}
	s, err := compiled.NewSim(core.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	run := compiled.NewRun(s)
	for !run.Done() {
		sup := guard.New(s.M, guard.Options{})
		if err := sup.Do(func() error {
			_, e := run.Advance(sup, serveCheckpointEvery)
			return e
		}); err != nil {
			s.M.Close()
			return nil, err
		}
	}
	if sc.ref, err = stateOf(s); err != nil {
		s.M.Close()
		return nil, err
	}
	return s, nil
}

// bootServer starts the service on a fresh spool behind an HTTP listener.
func bootServer() (*serve.Server, *httptest.Server, string, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, nil, "", err
	}
	spool, err := os.MkdirTemp(scratchDir, "serve-")
	if err != nil {
		return nil, nil, "", err
	}
	sv, err := serve.New(serve.Config{Spool: spool, Workers: gomaxprocs(), CheckpointEvery: serveCheckpointEvery})
	if err != nil {
		os.RemoveAll(spool)
		return nil, nil, "", err
	}
	return sv, httptest.NewServer(sv.Handler()), spool, nil
}

func stopServer(sv *serve.Server, hs *httptest.Server, spool string) {
	hs.Close()
	sv.Drain()
	os.RemoveAll(spool)
}

// sessionSample is one finished session as its client saw it.
type sessionSample struct {
	scenario int // index into the pool
	latency  time.Duration
}

func serveSessionsWorkload(cfg runConfig) *result {
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Metrics: map[string]metric{}}
	c := &collect{layer: map[string]float64{}, t: &tracer{keepRaw: cfg.trace && cfg.spans != ""}}
	rng := newRand(cfg.seed, 7)
	pool := serveScenarios(rng, cfg.scale)
	clients := gomaxprocs()
	res.Sizes = map[string]int64{"scenario_pool": servePool, "clients": int64(clients), "server_workers": int64(clients),
		"checkpoint_every_cycles": serveCheckpointEvery}
	fatal := func(err error) *result {
		res.Attempted++
		res.fail(err)
		res.Correct = false
		return res
	}

	var probe *core.Sim // a finished reference machine for the snapshot probe
	var refs []*simState
	for i := range pool {
		s, err := pool[i].reference(&c.build)
		if err != nil {
			return fatal(fmt.Errorf("serve-sessions: reference for %s: %w", pool[i].name, err))
		}
		refs = append(refs, &pool[i].ref)
		if probe == nil && pool[i].nodes > 1 {
			probe = s
		} else {
			s.M.Close()
		}
	}

	// Set-up: boot the service on a fresh spool and take it through its
	// first session (new connection, first spool files), serveSetups times;
	// the last server stays for the loop.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	var setups []float64
	var sv *serve.Server
	var hs *httptest.Server
	var spool string
	for i := 0; i < serveSetups; i++ {
		if sv != nil {
			stopServer(sv, hs, spool)
		}
		t0 := now()
		var err error
		if sv, hs, spool, err = bootServer(); err != nil {
			return fatal(fmt.Errorf("serve-sessions: boot: %w", err))
		}
		if _, _, err = runSession(client, hs.URL, &pool[0], &tracer{}); err != nil {
			stopServer(sv, hs, spool)
			return fatal(fmt.Errorf("serve-sessions: first session: %w", err))
		}
		setups = append(setups, (now() - t0).Seconds())
	}
	defer func() { stopServer(sv, hs, spool) }()

	// The session mix: a seeded order over the pool, shared by the clients.
	order := make([]int, 1<<16)
	for i := range order {
		order[i] = rng.IntN(servePool)
	}
	var next atomic.Int64
	var mu sync.Mutex
	var samples []sessionSample
	var rejected int64
	var spoolPeak int64

	start := now()
	deadline := start + time.Duration(cfg.seconds*float64(time.Second))
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		//mlint:allow gocheck closed-loop HTTP clients of the benchmark; simulation stays on serve's supervised workers
		go func() {
			defer wg.Done()
			t := &tracer{keepRaw: c.t.keepRaw}
			for now() < deadline {
				i := int(next.Add(1) - 1)
				sc := &pool[order[i%len(order)]]
				t.op = int32(i)
				lat, refused, err := runSession(client, hs.URL, sc, t)
				mu.Lock()
				res.Attempted++
				switch {
				case err != nil:
					res.fail(err)
					if refused {
						rejected++
					}
				default:
					samples = append(samples, sessionSample{order[i%len(order)], lat})
				}
				mu.Unlock()
			}
			mu.Lock()
			c.t.merge(t)
			mu.Unlock()
		}()
	}
	// Sample the spool's size while the clients run (checkpoints of
	// finished sessions are removed, so the peak is what matters).
	for now() < deadline {
		if n := dirBytes(spool); n > spoolPeak {
			spoolPeak = n
		}
		time.Sleep(50 * time.Millisecond) //mlint:allow wallclock spool sampling cadence of the benchmark, no simulated state involved
	}
	wg.Wait()
	wall := now() - start
	res.Correct = res.Failed == 0

	// Sessions differ in size, so the best observed operation is taken per
	// scenario: the rate is the pool's node-cycles over the sum of each
	// scenario's fastest session, times the sessions in flight (see
	// endToEnd for why the best and not the median).
	var lats []float64
	best := make([]time.Duration, servePool)
	for _, s := range samples {
		lats = append(lats, ms(s.latency))
		if best[s.scenario] == 0 || s.latency < best[s.scenario] {
			best[s.scenario] = s.latency
		}
	}
	var cycles float64
	var fastest time.Duration
	for i, b := range best {
		if b > 0 {
			cycles += float64(pool[i].ref.stats.Cycles * pool[i].nodes)
			fastest += b
		}
	}
	if !cfg.trace {
		endToEnd(res, setups, []float64{float64(clients) * cycles / fastest.Seconds()})
		if probe != nil {
			probe.M.Close()
		}
		return res
	}

	st := foldStates(refs)
	setExactLayers(c, *st)
	c.layer["op_samples"] = float64(len(samples))
	c.layer["op_p50_ms"] = median(lats)
	c.layer["op_p95_ms"] = quantile(lats, 0.95)
	c.layer["serve.sessions_per_s"] = float64(len(samples)) / wall.Seconds()
	c.layer["serve.submit_ms"] = c.t.perCall(spServeSubmit) / 1e6
	c.layer["serve.wait_ms"] = c.t.perCall(spServeWait) / 1e6
	c.layer["serve.rejected"] = float64(rejected)
	c.layer["serve.spool_bytes"] = float64(spoolPeak)
	c.layer["trace.overhead"] = 1 // the client-side spans are the measurement itself
	if probe != nil {
		if err := snapProbe(probe, c); err != nil {
			res.fail(fmt.Errorf("snapshot probe: %w", err))
		}
		probe.M.Close()
	}
	finishTraced(cfg, c, res)
	return res
}

// runSession posts one scenario and waits for its terminal state. It
// returns the latency from the start of the POST to the /wait response; a
// refused, failed or not bit-identical session is an error.
func runSession(client *http.Client, base string, sc *serveScenario, t *tracer) (lat time.Duration, refused bool, err error) {
	body, err := json.Marshal(map[string]string{"name": sc.name, "source": sc.src})
	if err != nil {
		return 0, false, err
	}
	var info serve.Info
	t0 := now()
	t.begin(spRun)
	defer t.end()
	t.begin(spServeSubmit)
	status, err := doJSON(client, http.MethodPost, base+"/api/v1/sessions", body, &info)
	t.end()
	if err != nil {
		return 0, false, err
	}
	if status != http.StatusAccepted {
		return 0, true, fmt.Errorf("serve-sessions: %s refused with HTTP %d", sc.name, status)
	}
	t.begin(spServeWait)
	status, err = doJSON(client, http.MethodGet, base+"/api/v1/sessions/"+info.ID+"/wait", nil, &info)
	t.end()
	lat = now() - t0
	if err != nil {
		return lat, false, err
	}
	switch {
	case status != http.StatusOK || info.State != serve.StateDone:
		return lat, false, fmt.Errorf("serve-sessions: %s ended %s (HTTP %d): %s %s", sc.name, info.State, status, info.FailureClass, info.Failure)
	case info.Digest != sc.ref.digest || info.TotalCycles != sc.ref.stats.Cycles:
		return lat, false, fmt.Errorf("serve-sessions: %s: digest %s at cycle %d, in-process reference %s at cycle %d",
			sc.name, info.Digest, info.TotalCycles, sc.ref.digest, sc.ref.stats.Cycles)
	}
	return lat, false, nil
}

func doJSON(client *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(raw, out)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
