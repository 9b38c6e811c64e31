package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tradeoff/internal/obs"
	"tradeoff/internal/service"
)

// server is one tradeoffd instance on a loopback listener, built as
// cmd/tradeoffd builds it with default flags: service.New with the
// default memo bounds, an info-level logger (writing nowhere) and the
// metrics-history scheduler running.
type server struct {
	base        string // "http://127.0.0.1:<port>"
	srv         *http.Server
	serveErr    chan error
	stopHistory context.CancelFunc
	historyDone chan struct{}
}

// startServer starts a server whose flight recorder keeps flightSpans
// spans (0 = tradeoffd's default).
func startServer(flightSpans int) (*server, error) {
	svc := service.New(service.Options{
		CacheEntries: 256,
		CacheBytes:   32 << 20,
		FlightSpans:  flightSpans,
		Logger:       obs.NewLogger(io.Discard, obs.LevelInfo),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	s := &server{
		base:        "http://" + ln.Addr().String(),
		srv:         &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		serveErr:    make(chan error, 1),
		historyDone: make(chan struct{}),
	}
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	ctx, cancel := context.WithCancel(context.Background())
	s.stopHistory = cancel
	go func() {
		defer close(s.historyDone)
		svc.RunHistory(ctx)
	}()
	return s, nil
}

// close shuts the server down and waits for its goroutines.
func (s *server) close() error {
	s.stopHistory()
	<-s.historyDone
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutting down: %w", err)
	}
	if err := <-s.serveErr; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serving: %w", err)
	}
	return nil
}

// newClient returns a client with its own keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// reply is one response as the benchmark records it.
type reply struct {
	status int
	body   []byte
	hit    bool // X-Cache: hit
}

func (s *server) post(c *http.Client, p payload) (reply, error) {
	resp, err := c.Post(s.base+p.path, "application/json", bytes.NewReader(p.body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("reading %s: %w", p.path, err)
	}
	return reply{status: resp.StatusCode, body: body, hit: resp.Header.Get("X-Cache") == "hit"}, nil
}

func (s *server) get(c *http.Client, path string) ([]byte, error) {
	resp, err := c.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body, nil
}

// do posts p and checks the response: status 200 and a body that
// passes the payload's validation.
func (s *server) do(c *http.Client, p payload) (reply, error) {
	r, err := s.post(c, p)
	if err != nil {
		return r, err
	}
	if r.status != http.StatusOK {
		return r, fmt.Errorf("POST %s: status %d: %s", p.path, r.status, r.body)
	}
	return r, p.validate(r.body)
}

// goldens are the payloads of internal/service/golden_test.go; the
// responses must equal the committed golden files byte for byte.
var goldens = []struct{ file, path, body string }{
	{"sweep_golden.json", "/v1/sweep", goldenSweepConfig},
	{"sweep_golden.csv", "/v1/sweep?format=csv", goldenSweepConfig},
	{"stall_golden.json", "/v1/stall", goldenGrid},
	{"stall_golden.csv", "/v1/stall?format=csv", goldenGrid},
	{"optimize_golden.json", "/v1/optimize", goldenOptimizeConfig},
	{"optimize_golden.csv", "/v1/optimize?format=csv", goldenOptimizeConfig},
}

const goldenGrid = `{
  "programs":   ["nasa7"],
  "refs":       4000,
  "features":   ["FS", "BNL3"],
  "beta_m":     [4, 10]
}`

const goldenSweepConfig = `{
  "cache_kb":    [4, 8, 16, 32, 64],
  "line_bytes":  [16, 32, 64],
  "bus_bits":    [32, 64],
  "assoc":       2,
  "latency_ns":  360,
  "transfer_ns": 60,
  "cpu_ns":      30,
  "hit_source":  "model"
}`

const goldenOptimizeConfig = `{
  "cache_kb":    [4, 8],
  "line_bytes":  [16, 32],
  "bus_bits":    [32, 64],
  "assoc":       2,
  "latency_ns":  360,
  "transfer_ns": 60,
  "cpu_ns":      30,
  "hit_source":  "model",
  "levels": [
    {"cache_kb": [32, 64], "latency_ns": 90},
    {"cache_kb": [256], "latency_ns": 180}
  ],
  "area_budget": 2e7
}`

func checkGoldens(s *server, c *http.Client, root string) error {
	for _, g := range goldens {
		want, err := os.ReadFile(filepath.Join(root, "internal", "service", "testdata", g.file))
		if err != nil {
			return fmt.Errorf("golden: %w", err)
		}
		r, err := s.post(c, payload{path: g.path, body: []byte(g.body)})
		if err != nil {
			return fmt.Errorf("golden %s: %w", g.file, err)
		}
		if r.status != http.StatusOK || !bytes.Equal(r.body, want) {
			return fmt.Errorf("golden %s: response (status %d) differs from the committed file", g.file, r.status)
		}
	}
	return nil
}

// digestsFile holds the SHA-256 digests of every workload's check
// responses, relative to the repository root.
var digestsFile = filepath.Join("loadbench", "testdata", "digests.json")

func readDigests(root string) (map[string][]string, error) {
	data, err := os.ReadFile(filepath.Join(root, digestsFile))
	if err != nil {
		return nil, err
	}
	var d map[string][]string
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", digestsFile, err)
	}
	return d, nil
}

// checkDigests posts the workload's check payloads and compares each
// response's SHA-256 with the committed digest, so a change meant only
// for speed cannot alter what the service answers.
func checkDigests(s *server, c *http.Client, workload string, want []string) error {
	got, err := responseDigests(s, c, workload)
	if err != nil {
		return err
	}
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d committed check digests, want %d", workload, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: check payload %d: response digest %s, committed %s", workload, i, got[i], want[i])
		}
	}
	return nil
}

func responseDigests(s *server, c *http.Client, workload string) ([]string, error) {
	var out []string
	for i, p := range checks(workload) {
		r, err := s.do(c, p)
		if err != nil {
			return nil, fmt.Errorf("%s: check payload %d: %w", workload, i, err)
		}
		sum := sha256.Sum256(r.body)
		out = append(out, hex.EncodeToString(sum[:]))
	}
	return out, nil
}

// setUp checks the goldens and the workload's digests, then sends the
// workload's warm-up requests.
func setUp(s *server, c *http.Client, root, workload string, seed uint64) error {
	if err := checkGoldens(s, c, root); err != nil {
		return err
	}
	digests, err := readDigests(root)
	if err != nil {
		return err
	}
	if err := checkDigests(s, c, workload, digests[workload]); err != nil {
		return err
	}
	for i, p := range warmup(workload, seed) {
		if _, err := s.do(c, p); err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return nil
}

// sample is one timed request of a window.
type sample struct {
	ms    float64 // latency; +Inf when the request failed
	err   error   // why the request failed, nil when it succeeded
	hit   bool
	bytes int
}

// window is what one closed-loop window measured.
type window struct {
	samples []sample
	elapsed time.Duration
}

// runWindow drives the server with a closed loop: each client sends
// its next payload only after the previous reply, until d has passed
// or, when limit > 0, it has sent limit requests. The request in
// flight at the deadline completes, and elapsed runs to the last
// reply.
func runWindow(s *server, cs []*http.Client, workload string, seed uint64, d time.Duration, limit int) (window, error) {
	streams := make([]*stream, len(cs))
	for i := range cs {
		st, err := newStream(workload, seed, i)
		if err != nil {
			return window{}, err
		}
		streams[i] = st
	}
	per := make([][]sample, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *http.Client) {
			defer wg.Done()
			for n := 0; (limit <= 0 || n < limit) && time.Now().Before(deadline); n++ {
				p := streams[i].next()
				t := time.Now()
				r, err := s.do(c, p)
				sm := sample{ms: float64(time.Since(t).Nanoseconds()) / 1e6, err: err, hit: r.hit, bytes: len(r.body)}
				if err != nil {
					sm.ms = math.Inf(1)
				}
				per[i] = append(per[i], sm)
			}
		}(i, c)
	}
	wg.Wait()
	w := window{elapsed: time.Since(start)}
	for _, p := range per {
		w.samples = append(w.samples, p...)
	}
	return w, nil
}

// failed counts the window's failed requests: non-200 replies,
// transport errors and responses that fail validation.
func (w window) failed() int {
	n := 0
	for _, s := range w.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// firstErr returns the window's first failure, or nil.
func (w window) firstErr() error {
	for _, s := range w.samples {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// throughput is validated 200 replies per second of window.
func (w window) throughput() float64 {
	return float64(len(w.samples)-w.failed()) / w.elapsed.Seconds()
}

func (w window) latencies() []float64 {
	out := make([]float64, len(w.samples))
	for i, s := range w.samples {
		out[i] = s.ms
	}
	return out
}
