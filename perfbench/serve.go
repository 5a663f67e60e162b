package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"textjoin"
)

// serveMix mirrors cmd/loadgen's defaultMix: every exact algorithm,
// parallel variants, prefilter on, the approximate join and the
// integrated planner. serveEntries names the in-process entry point
// that computes the same join, whose counters each reply must match.
var (
	serveMix     = []string{"alg=hhnl", "alg=hvnl", "alg=vvm", "alg=hvnl&workers=2", "alg=vvm&workers=2", "alg=hhnl&prefilter=on", "alg=hvnl&prefilter=on", "mode=lsh", "alg=auto"}
	serveEntries = []string{"hhnl", "hvnl", "vvm", "hvnl-w2", "vvm-w2", "hhnl-pf", "hvnl-pf", "lsh", "auto"}
)

// The serve workload's load shape.
const (
	// serveScale and serveLambda are textjoind's defaults: WSJ×WSJ at
	// 1/2048 and λ = 5, joins of about a millisecond.
	serveScale  = 2048
	serveLambda = 5
	// fixedRate is the offered rate latency is reported at, well below
	// the knee; a run's fixed-rate phase sends at least 1,000 requests.
	fixedRate = 300
	// latencyLimit is the p99 a ladder rung must stay within: far above
	// the unloaded p99 of a few milliseconds, so only a backlog, not a
	// short stall of the machine, fails a rung, and far below the
	// daemon's own 2 s latency objective.
	latencyLimit = 250 * time.Millisecond
	// conns caps the generator's keep-alive connections at the
	// machine's CPU count, so the generator cannot outnumber the
	// server's processors.
	maxConns = 2
)

// counters are the deterministic fields of a /join reply.
type counters struct {
	OuterDocs int64   `json:"outer_docs"`
	SeqReads  int64   `json:"seq_reads"`
	RandReads int64   `json:"rand_reads"`
	Cost      float64 `json:"cost"`
}

// joinReply is the part of a /join reply the benchmark reads. Result
// and Match decode from the reply's "outer", "matches", "doc" and "sim"
// fields by name.
type joinReply struct {
	counters
	QueueSeconds float64           `json:"queue_seconds"`
	ExecSeconds  float64           `json:"exec_seconds"`
	Results      []textjoin.Result `json:"results"`
}

// daemon is a running textjoind.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startDaemon starts textjoind on a free loopback port and returns once
// /healthz answers 200, with the time that took.
func startDaemon(cfg config) (*daemon, time.Duration, error) {
	bin := filepath.Join(cfg.root, ".bench_build", "textjoind")
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-seed", strconv.FormatInt(cfg.seed, 10))
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start textjoind: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "textjoind: listening on "); ok {
				addr <- a
			}
		}
		close(addr)
	}()
	a, ok := <-addr
	if !ok {
		d.stop()
		return nil, 0, fmt.Errorf("textjoind exited before listening")
	}
	d.base = "http://" + a
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("textjoind not healthy after 60s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop kills the daemon and waits until it and its output reader have
// ended.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.done
	d.cmd.Wait()
}

// sample is one request of an open-loop phase.
type sample struct {
	profile      int
	lag, latency time.Duration
	status       int
	queue, exec  float64 // ms, server-reported
	err          error
}

// openLoop sends requests at a fixed rate for dur, cycling through the
// mix, over at most maxConns keep-alive connections. Each request's
// latency runs from its scheduled send time to the end of its body, so
// a stall also counts against the requests scheduled behind it.
func (d *daemon) openLoop(rate float64, dur time.Duration, refs []counters) []sample {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 2 * time.Second}
	n := int(rate * dur.Seconds())
	samples := make([]sample, n)
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	// The Go scheduler's timers wake an idle process at millisecond
	// granularity, which would show up as generator lag; the sender
	// sleeps in nanosleep on its own thread instead.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for k := 0; k < n; k++ {
		sched := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if d := time.Until(sched); d > 0 {
			ts := syscall.NsecToTimespec(d.Nanoseconds())
			syscall.Nanosleep(&ts, nil)
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s := &samples[k]
			s.profile = k % len(serveMix)
			s.lag = time.Since(sched)
			var rep joinReply
			s.status, s.err = d.get(client, serveMix[s.profile]+"&show=0", &rep)
			s.latency = time.Since(sched)
			if s.err == nil && s.status == http.StatusOK {
				s.queue, s.exec = rep.QueueSeconds*1e3, rep.ExecSeconds*1e3
				if rep.counters != refs[s.profile] {
					s.err = fmt.Errorf("%s: counters %+v, want %+v", serveMix[s.profile], rep.counters, refs[s.profile])
				}
			}
		}(k)
	}
	wg.Wait()
	return samples
}

// get requests one join and decodes a 200 reply into rep.
func (d *daemon) get(client *http.Client, query string, rep *joinReply) (int, error) {
	resp, err := client.Get(fmt.Sprintf("%s/join?%s&lambda=%d", d.base, query, serveLambda))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(body, rep)
}

// ok reports whether a sample succeeded: a 200 whose counters matched.
func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// serveSession is the serve workload's state: the daemon, the
// in-process replica of its workspace, and the per-profile reference
// counters.
type serveSession struct {
	d      *daemon
	r      *joinRunner
	refs   []counters
	recall float64
}

// openServe starts textjoind setupReps times (keeping the last one),
// builds the replica of its workspace, computes each mix profile's
// reference counters in process, and checks one full reply per profile
// against the brute-force answer.
func openServe(cfg config, t *tally) (*serveSession, []float64, error) {
	var setups []float64
	var d *daemon
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		var err error
		if d, took, err = startDaemon(cfg); err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
	}
	s := &serveSession{d: d}
	env, err := buildWSJ(cfg.seed, serveScale, serveLambda, textjoin.LSHConfig{})
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	inner, err := readAll(env.c1)
	if err == nil {
		var outer []*textjoin.Document
		if outer, err = readAll(env.c2); err == nil {
			s.r = &joinRunner{env: env, ref: bruteForce(inner, outer, serveLambda)}
		}
	}
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	client := &http.Client{Timeout: 10 * time.Second}
	for i, name := range serveEntries {
		o, ok := s.r.run(name, false)
		if !ok {
			d.stop()
			return nil, nil, s.r.firstErr
		}
		want := counters{o.st.OuterDocs, o.st.IO.SeqReads, o.st.IO.RandReads, o.st.Cost}
		s.refs = append(s.refs, want)
		var rep joinReply
		status, err := d.get(client, serveMix[i]+"&show=1000000", &rep)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err == nil && rep.counters != want {
			err = fmt.Errorf("counters %+v, want %+v", rep.counters, want)
		}
		if err == nil && name != "lsh" && hashResults(rep.Results) != s.r.ref.hash {
			err = fmt.Errorf("results differ from the brute-force reference")
		}
		if err == nil && name == "lsh" {
			if err = s.r.ref.checkApprox(rep.Results); err == nil {
				s.recall, err = pooledRecall(cfg.seed, s.r.ref, rep.Results)
			}
		}
		t.count(err, "textjoind "+serveMix[i])
	}
	return s, setups, nil
}

// recallReplicas is how many workspaces of textjoind's shape the serve
// workload's recall pools: at 48 documents a side one workspace's
// recall swings with its seed, the pooled figure does not.
const recallReplicas = 64

// pooledRecall is the LSH join's recall at textjoind's shape, pooled
// over the pairs of the daemon's own reply and recallReplicas−1 more
// workspaces of that shape generated and joined in process.
func pooledRecall(seed int64, ref *reference, reply []textjoin.Result) (float64, error) {
	hit, total := ref.recall(reply)
	for i := int64(1); i < recallReplicas; i++ {
		env, err := buildWSJ(seed<<16+2*i, serveScale, serveLambda, textjoin.LSHConfig{})
		if err != nil {
			return 0, err
		}
		inner, err := readAll(env.c1)
		if err != nil {
			return 0, err
		}
		outer, err := readAll(env.c2)
		if err != nil {
			return 0, err
		}
		res, _, err := textjoin.JoinLSH(env.inputs(), textjoin.Options{Lambda: serveLambda, MemoryPages: env.mem, LSH: env.lsh})
		if err != nil {
			return 0, err
		}
		h, t := bruteForce(inner, outer, serveLambda).recall(res)
		hit, total = hit+h, total+t
	}
	return ratio(hit, total), nil
}

// fixedPhase is the open-loop run at fixedRate: its samples and the
// server's CPU time over it.
func (s *serveSession) fixedPhase(dur time.Duration, t *tally) ([]sample, time.Duration, error) {
	pid := s.d.cmd.Process.Pid
	c0, err := procCPU(pid)
	if err != nil {
		return nil, 0, err
	}
	samples := s.d.openLoop(fixedRate, dur, s.refs)
	c1, err := procCPU(pid)
	if err != nil {
		return nil, 0, err
	}
	for i := range samples {
		err := samples[i].err
		if err == nil && samples[i].status != http.StatusOK {
			err = fmt.Errorf("status %d", samples[i].status)
		}
		t.count(err, "textjoind "+serveMix[samples[i].profile])
	}
	return samples, c1 - c0, nil
}

// ladder finds the highest offered rate the daemon sustains: p99
// within latencyLimit, at least 99% of requests answered correctly,
// and latency not trending up over the rung (a growing backlog). The
// first rung offers 3 × fixedRate; rungs then rise (or, if it fails,
// fall) by half until the verdict flips, and the gap between the
// highest passing and the lowest failing rung is bisected four times.
// A failing rung bounds the answer from above, so the result is
// interior to the ladder. A rung fails only if it fails twice running,
// so one burst of machine noise cannot end the climb. Wrong answers
// count as failures; overload refusals and timeouts on failing rungs
// are the measurement itself.
func (s *serveSession) ladder(t *tally) (float64, []rungResult) {
	const rung = 1200 * time.Millisecond
	var trail []rungResult
	try := func(rate float64) bool {
		samples := s.d.openLoop(rate, rung, s.refs)
		var lat []float64
		good := 0
		for i := range samples {
			if samples[i].ok() {
				good++
			} else if samples[i].err != nil && samples[i].status == http.StatusOK {
				t.count(samples[i].err, "textjoind ladder")
			}
			lat = append(lat, float64(samples[i].latency.Microseconds())/1e3)
		}
		p99 := rankPercentile(lat, 0.99)
		q := len(lat) / 4
		growing := median(lat[len(lat)-q:]) > 2*median(lat[:q])+10
		r := rungResult{Rate: rate, P99Ms: p99, OKFrac: ratio(good, len(samples))}
		r.Pass = r.OKFrac >= 0.99 && p99 <= float64(latencyLimit.Milliseconds()) && !growing
		trail = append(trail, r)
		return r.Pass
	}
	sustains := func(rate float64) bool { return try(rate) || try(rate) }
	lo, hi := 0.0, 0.0
	for rate := 3.0 * fixedRate; hi == 0 && rate < 100*fixedRate; rate *= 1.5 {
		if !sustains(rate) {
			hi = rate
		} else {
			lo = rate
		}
	}
	for rate := hi / 1.5; lo == 0 && rate > fixedRate/10; rate /= 1.5 {
		if sustains(rate) {
			lo = rate
		} else {
			hi = rate
		}
	}
	for i := 0; i < 4 && hi > 0 && lo > 0; i++ {
		mid := (lo + hi) / 2
		if sustains(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, trail
}

// rungResult is one ladder rung, as the diagnostics line reports it.
type rungResult struct {
	Rate   float64 `json:"rate"`
	P99Ms  float64 `json:"p99_ms"`
	OKFrac float64 `json:"ok_frac"`
	Pass   bool    `json:"pass"`
}

// runServe runs the serve workload. The untraced run reports latency at
// the fixed rate, the rate ladder and the server's CPU and memory; the
// traced run reports the server's reply breakdown and the in-process
// replica's per-layer rows.
func runServe(cfg config) (*outcome, error) {
	generatorSettings()
	out := &outcome{metrics: map[string]float64{}, notes: map[string]any{}}
	s, setups, err := openServe(cfg, &out.tally)
	if err != nil {
		return nil, err
	}
	defer s.d.stop()
	m := out.metrics
	m["setup_s"] = median(setups)
	m["recall"] = s.recall
	out.notes["setups_s"] = setups

	if cfg.traced {
		if err := s.textjoindRows(cfg.budget/2, m, &out.tally); err != nil {
			return nil, err
		}
		s.r.log = newSpanLog(cfg.seed)
		rounds := s.r.rounds(allEntries, 1, 3, cfg.budget/2, true)
		joinLayerMetrics(rounds, s.r.log, m)
		if err := layerProbes(s.r.env, s.r.log, m); err != nil {
			return nil, err
		}
		out.notes["rounds"] = len(rounds)
		if out.notes["trace_file"], err = writeTrace(cfg, s.r.log); err != nil {
			return nil, err
		}
		out.tally.attempted += s.r.attempted
		out.tally.failed += s.r.failed
		return out, nil
	}

	if _, _, err := s.fixedPhase(time.Second, &out.tally); err != nil { // warm-up, discarded
		return nil, err
	}
	t0 := time.Now()
	samples, cpu, err := s.fixedPhase(cfg.budget/2-time.Second, &out.tally)
	if err != nil {
		return nil, err
	}
	phase := time.Since(t0)
	var lat []float64
	perProfile := make([][]float64, len(serveMix))
	var docs, cost float64
	for i := range samples {
		if !samples[i].ok() {
			continue
		}
		ms := float64(samples[i].latency.Microseconds()) / 1e3
		lat = append(lat, ms)
		perProfile[samples[i].profile] = append(perProfile[samples[i].profile], ms)
		docs += float64(s.refs[samples[i].profile].OuterDocs)
		cost += s.refs[samples[i].profile].Cost
	}
	var meds []float64
	for _, p := range perProfile {
		meds = append(meds, median(p))
	}
	m["latency_p50_ms"] = median(lat)
	var windows int
	m["latency_p99_ms"], windows = windowedP99(lat)
	m["join_ms_geomean"] = geomean(meds)
	m["docs_per_s"] = docs / phase.Seconds()
	m["cpu_us_per_doc"] = float64(cpu.Microseconds()) / docs
	m["io_cost_per_doc"] = cost / docs
	rate, trail := s.ladder(&out.tally)
	m["max_rate_rps"] = rate
	if m["peak_rss_mb"], err = peakRSSMiB(strconv.Itoa(s.d.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	out.notes["latency_samples"] = len(lat)
	out.notes["latency_p99_windows"] = windows
	out.notes["ladder"] = trail
	return out, nil
}

// textjoindRows runs the fixed-rate phase and reports the server's own
// breakdown of each reply: admission queue, execution, the gap the
// client sees on top, refusals, and how late the generator sent.
func (s *serveSession) textjoindRows(dur time.Duration, m map[string]float64, t *tally) error {
	samples, _, err := s.fixedPhase(dur, t)
	if err != nil {
		return err
	}
	var queue, exec, gap, lag []float64
	rejected := 0
	for i := range samples {
		x := &samples[i]
		lag = append(lag, float64(x.lag.Microseconds())/1e3)
		if x.status == http.StatusServiceUnavailable {
			rejected++
		}
		if !x.ok() {
			continue
		}
		queue = append(queue, x.queue)
		exec = append(exec, x.exec)
		gap = append(gap, float64(x.latency.Microseconds())/1e3-x.queue-x.exec)
	}
	m["textjoind.queue_ms_p50"] = median(queue)
	m["textjoind.exec_ms_p50"] = median(exec)
	m["textjoind.gap_ms_p50"] = median(gap)
	m["textjoind.rejected_frac"] = ratio(rejected, len(samples))
	m["loadgen.lag_ms_p99"], _ = tailPercentile(lag)
	return nil
}

// generatorSettings caps this process at maxConns processors and makes
// its garbage collections rare, so the generator's own pauses do not
// show up as server latency.
func generatorSettings() {
	runtime.GOMAXPROCS(min(maxConns, runtime.NumCPU()))
	debug.SetGCPercent(400)
}

// serveProbe fills the textjoind and generator rows of a join
// workload's traced run: textjoind at its default shape, checked as in
// the serve workload, under the fixed-rate open loop for five seconds.
func serveProbe(cfg config, m map[string]float64, t *tally) error {
	generatorSettings()
	s, _, err := openServe(cfg, t)
	if err != nil {
		return err
	}
	defer s.d.stop()
	return s.textjoindRows(5*time.Second, m, t)
}
