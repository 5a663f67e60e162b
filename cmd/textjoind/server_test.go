package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"textjoin/internal/metrics"
)

func testServer(t *testing.T, scale int64) (*server, *httptest.Server) {
	t.Helper()
	cfg := defaultConfig()
	cfg.Scale = scale
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func get(t *testing.T, hs *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := hs.Client().Get(hs.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestServerEndpoints(t *testing.T) {
	s, hs := testServer(t, 4096)

	status, body := get(t, hs, "/healthz")
	if status != 200 {
		t.Fatalf("healthz status %d", status)
	}
	var health struct {
		Status string `json:"status"`
		Joins  int64  `json:"joins"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Joins != 0 {
		t.Errorf("health = %+v", health)
	}

	status, body = get(t, hs, "/join?alg=auto&lambda=3&show=2")
	if status != 200 {
		t.Fatalf("join status %d: %s", status, body)
	}
	var j joinResponse
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if !j.Integrated || j.Lambda != 3 || j.OuterDocs == 0 || len(j.Results) > 2 {
		t.Errorf("join response: %+v", j)
	}
	if s.joins.Load() != 1 {
		t.Errorf("joins counter = %d, want 1", s.joins.Load())
	}

	status, body = get(t, hs, "/metrics")
	if status != 200 {
		t.Fatalf("metrics status %d", status)
	}
	if err := metrics.Lint(body); err != nil {
		t.Errorf("metrics exposition rejected: %v\n%s", err, body)
	}
	for _, want := range []string{"textjoin_plan_chosen_total", "textjoin_iosim_file_seq_reads_total", "textjoin_scrapes_total"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics lack %s", want)
		}
	}

	// The integrated join's plan span reaches the phase histograms
	// through the request-trace fold.
	if !strings.Contains(string(body), `textjoin_phase_ns_count{phase="plan"} 1`) {
		t.Errorf("metrics lack the folded plan phase:\n%s", body)
	}

	for path, want := range map[string]int{
		"/join?alg=bogus":    http.StatusBadRequest,
		"/join?lambda=x":     http.StatusBadRequest,
		"/join?lambda=-1":    http.StatusBadRequest,
		"/join?weighting=no": http.StatusBadRequest,
		"/join?mode=bogus":   http.StatusBadRequest,
		"/join?recall=1.5":   http.StatusBadRequest,
		"/join?recall=-0.2":  http.StatusBadRequest,
		"/join?recall=x":     http.StatusBadRequest,
	} {
		if status, _ := get(t, hs, path); status != want {
			t.Errorf("GET %s: status %d, want %d", path, status, want)
		}
	}
}

// TestJoinRejectsHostileParams: parameters that parse but would make a
// join pathological are rejected with 400 before admission — no queue
// span, no join. Only cheap out-of-range values are sent: the first
// illegal λ and worker count, never a large one.
func TestJoinRejectsHostileParams(t *testing.T) {
	s, hs := testServer(t, 4096)
	n1 := s.c1.Stats().N
	cases := []struct {
		path, param string
	}{
		{"/join?alg=auto&recall=NaN&show=0", "recall"},
		{fmt.Sprintf("/join?alg=hvnl&lambda=%d&show=0", n1+1), "lambda"},
		{fmt.Sprintf("/join?alg=hhnl&workers=%d&show=0", maxWorkers+1), "workers"},
	}
	for _, tc := range cases {
		status, body := get(t, hs, tc.path)
		if status != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400: %s", tc.path, status, body)
			continue
		}
		var reply struct {
			Error   string `json:"error"`
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(reply.Error, tc.param) {
			t.Errorf("GET %s: error %q does not name %s", tc.path, reply.Error, tc.param)
		}
		for _, sp := range fetchTrace(t, hs, reply.TraceID).Spans {
			if sp.Phase == "queue" || sp.Phase == "exec" {
				t.Errorf("GET %s: rejected request reached %s", tc.path, sp.Phase)
			}
		}
	}
	if n := s.joins.Load(); n != 0 {
		t.Errorf("%d joins ran, want 0", n)
	}
	// The largest legal values still run.
	for _, path := range []string{
		fmt.Sprintf("/join?alg=hvnl&lambda=%d&show=0", n1),
		"/join?alg=auto&recall=1&show=0",
	} {
		if status, body := get(t, hs, path); status != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200: %s", path, status, body)
		}
	}
}

// TestServerLSH drives the approximate join end to end: mode=lsh (and
// its alg=lsh spelling) must reply with LSH stats, the parallel variant
// must return the same top-λ pairs as the serial one, and recall=r must
// reach the integrated planner without breaking the auto path.
func TestServerLSH(t *testing.T) {
	_, hs := testServer(t, 4096)

	status, body := get(t, hs, "/join?mode=lsh&lambda=3&show=2")
	if status != 200 {
		t.Fatalf("mode=lsh status %d: %s", status, body)
	}
	var serial joinResponse
	if err := json.Unmarshal(body, &serial); err != nil {
		t.Fatal(err)
	}
	if serial.Algorithm != "LSH" || serial.Integrated {
		t.Errorf("mode=lsh ran %q (integrated=%v), want LSH", serial.Algorithm, serial.Integrated)
	}
	if serial.LSH == nil || serial.LSH.BucketProbes == 0 {
		t.Errorf("mode=lsh reply lacks LSH stats: %+v", serial.LSH)
	}

	status, body = get(t, hs, "/join?alg=lsh&lambda=3&show=2&workers=2")
	if status != 200 {
		t.Fatalf("alg=lsh workers=2 status %d: %s", status, body)
	}
	var parallel joinResponse
	if err := json.Unmarshal(body, &parallel); err != nil {
		t.Fatal(err)
	}
	if parallel.Algorithm != "LSH" {
		t.Errorf("alg=lsh ran %q, want LSH", parallel.Algorithm)
	}
	if len(parallel.Results) != len(serial.Results) {
		t.Fatalf("parallel returned %d result rows, serial %d", len(parallel.Results), len(serial.Results))
	}
	for i := range serial.Results {
		a, b := serial.Results[i], parallel.Results[i]
		if a.Outer != b.Outer || len(a.Matches) != len(b.Matches) {
			t.Fatalf("row %d: serial %+v, parallel %+v", i, a, b)
		}
		for j := range a.Matches {
			if a.Matches[j] != b.Matches[j] {
				t.Errorf("row %d match %d: serial %+v, parallel %+v", i, j, a.Matches[j], b.Matches[j])
			}
		}
	}

	status, body = get(t, hs, "/join?alg=auto&recall=0.9&show=0")
	if status != 200 {
		t.Fatalf("auto recall=0.9 status %d: %s", status, body)
	}
	var auto joinResponse
	if err := json.Unmarshal(body, &auto); err != nil {
		t.Fatal(err)
	}
	if !auto.Integrated || auto.Algorithm == "" {
		t.Errorf("auto recall response: %+v", auto)
	}
}

// TestConcurrentScrapes is the acceptance check for the live scrape
// path: /metrics and the flight recorder listing are hammered while
// parallel HVNL and VVM joins are in flight. Every exposition must
// parse and every listing must decode; run under -race this also
// proves the scrape path shares no unsynchronized state with the join
// hot path.
func TestConcurrentScrapes(t *testing.T) {
	_, hs := testServer(t, 2048)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	joins := []string{
		"/join?alg=hvnl&workers=4&show=0",
		"/join?alg=vvm&workers=4&show=0",
		"/join?alg=hvnl&workers=2&show=0",
		"/join?alg=auto&show=0",
	}
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, path := range joins {
			resp, err := hs.Client().Get(hs.URL + path)
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- &joinStatusError{path, resp.StatusCode}
				return
			}
		}
	}()

	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := hs.Client().Get(hs.URL + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if err := metrics.Lint(body); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := hs.Client().Get(hs.URL + "/debug/requests?format=json")
			if err != nil {
				errs <- err
				return
			}
			var list struct {
				Slowest, Recent []struct {
					TraceID string `json:"trace_id"`
				}
			}
			err = json.NewDecoder(resp.Body).Decode(&list)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type joinStatusError struct {
	path   string
	status int
}

func (e *joinStatusError) Error() string {
	return "GET " + e.path + ": unexpected status " + http.StatusText(e.status)
}

func TestSmoke(t *testing.T) {
	var sb strings.Builder
	if err := runSmoke(defaultConfig(), &sb); err != nil {
		t.Fatalf("smoke failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "shutdown clean") {
		t.Errorf("smoke output lacks clean shutdown:\n%s", sb.String())
	}
}
