package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test holds the program to.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that the answers pass and that exactly the metrics BENCHMARK.json
// names are emitted, each with its unit.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the program has %v", names, workloadNames())
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			res, err := run(options{workload: name, seed: 3, seconds: 0.05, trace: trace, workdir: t.TempDir(), tiny: true}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, m.Name, got.Value)
				}
			}
		}
	}
}

// TestWrongAnswerFails puts a proxy that alters one number of every answer
// between the client and the server: the checks must notice.
func TestWrongAnswerFails(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		e, err := w.setup(tiny, 3, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		proxy := httptest.NewServer(corrupting(e.url))
		b := &bench{w: w, e: e, cl: newClient(proxy.URL)}
		if err := b.warmUp(); err != nil {
			t.Fatalf("%s: warm-up through the proxy: %v", name, err)
		}
		// The checks against the benchmark's own inputs must catch the
		// altered answers on their own, before the library replay.
		if b.problems == 0 {
			t.Errorf("%s: altered answers passed the warm-up checks", name)
		}
		before := b.problems
		rp, err := e.replayer(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		b.rp = rp
		b.checkReplay()
		rp.close()
		if b.problems == before {
			t.Errorf("%s: altered answers matched the library replay", name)
		}
		proxy.Close()
		e.close()
	}
}

// corrupting forwards requests to url and bumps the first digit of the
// answer's first vertex set (or, for uploads, of its edge count).
func corrupting(url string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		resp, err := http.Post(url+r.URL.Path, "application/json", bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, key := range []string{`"s": [`, `"m": `} {
			if i := bytes.Index(out, []byte(key)); i >= 0 {
				for j := i + len(key); j < len(out); j++ {
					if c := out[j]; c >= '0' && c <= '9' {
						out[j] = '0' + (c-'0'+1)%10
						break
					}
				}
				break
			}
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(out)
	})
}
