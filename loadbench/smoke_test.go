package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/digests.json from the current server's answers")

// repoRoot is the repository root as seen from this package's
// directory, where go test runs.
const repoRoot = ".."

// TestMain lets a test run the benchmark command itself: with
// LOADBENCH_MAIN=1 the test binary is the loadbench program, children
// included.
func TestMain(m *testing.M) {
	if os.Getenv("LOADBENCH_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke runs each workload's set-up checks and about 30 requests
// against an in-process server: zero failures and, unless
// -update-digests rewrites them, the committed check digests.
func TestSmoke(t *testing.T) {
	s, err := startServer(0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.close(); err != nil {
			t.Error(err)
		}
	}()
	cs := []*http.Client{newClient(), newClient()}
	defer cs[0].CloseIdleConnections()
	defer cs[1].CloseIdleConnections()

	if err := checkGoldens(s, cs[0], repoRoot); err != nil {
		t.Fatal(err)
	}
	digests, err := readDigests(repoRoot)
	if *updateDigests {
		digests = map[string][]string{}
	} else if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			if *updateDigests {
				got, err := responseDigests(s, cs[0], w)
				if err != nil {
					t.Fatal(err)
				}
				digests[w] = got
			} else if err := checkDigests(s, cs[0], w, digests[w]); err != nil {
				t.Fatal(err)
			}
			win, err := runWindow(s, cs, w, 1, time.Minute, 15)
			if err != nil {
				t.Fatal(err)
			}
			if len(win.samples) != 30 {
				t.Fatalf("%d requests, want 30", len(win.samples))
			}
			if err := win.firstErr(); err != nil {
				t.Fatalf("%d of 30 requests failed; first: %v", win.failed(), err)
			}
		})
	}
	if *updateDigests {
		data, err := json.MarshalIndent(digests, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(repoRoot, digestsFile), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptDigestFailsCommand runs the command against a root whose
// committed digests are corrupted: it must exit non-zero and print no
// result.
func TestCorruptDigestFailsCommand(t *testing.T) {
	root := t.TempDir()
	copyFile(t, filepath.Join(repoRoot, "BENCHMARK.json"), filepath.Join(root, "BENCHMARK.json"))
	for _, g := range goldens {
		rel := filepath.Join("internal", "service", "testdata", g.file)
		copyFile(t, filepath.Join(repoRoot, rel), filepath.Join(root, rel))
	}
	digests, err := readDigests(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	d := []byte(digests[stallReplay][0])
	d[0] ^= 1 // '0'↔'1', 'a'↔'`' …: any change corrupts the digest
	digests[stallReplay][0] = string(d)
	data, err := json.Marshal(digests)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(root, digestsFile), data)

	cmd := exec.Command(os.Args[0], "-root", root, "-workload", stallReplay, "-seconds", "1")
	cmd.Env = append(os.Environ(), "LOADBENCH_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("command err = %v, want a non-zero exit; stderr:\n%s", err, stderr.Bytes())
	}
	if stdout.Len() != 0 {
		t.Errorf("command printed %q, want no result", stdout.Bytes())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("response digest")) {
		t.Errorf("stderr does not name the digest mismatch:\n%s", stderr.Bytes())
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, to, data)
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
