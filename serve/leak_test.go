package serve

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// Resource release is checked at run time: every goroutine the package's
// tests start must end, and every snapshot mapping and pin must be gone
// once a server is closed and its jobs have drained.

// leakDeadline bounds how long the checks below wait for goroutines, jobs
// and mappings to wind down before they call it a leak.
const leakDeadline = 10 * time.Second

// TestMain fails the run when the goroutine count has not returned to its
// value before the tests within leakDeadline, and dumps every goroutine's
// stack so the leak names its origin. A fuzzing run is exempt: the fuzzing
// engine keeps a signal-handling goroutine of its own.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && !fuzzing() {
		deadline := time.Now().Add(leakDeadline)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines after the tests, %d before\n", n, before)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
			code = 1
		}
	}
	os.Exit(code)
}

// fuzzing reports whether this process runs the fuzzing engine, as its
// coordinator or as one of its workers.
func fuzzing() bool {
	for _, name := range []string{"test.fuzz", "test.fuzzworker"} {
		if f := flag.Lookup(name); f != nil && f.Value.String() != "" && f.Value.String() != "false" {
			return true
		}
	}
	return false
}

// closeChecked closes s, waits for its jobs to drain, and fails t unless
// every snapshot mapping and pin is gone: the memory manager reports no
// pinned snapshot and no mapped or shadow bytes, and on Linux no line of
// /proc/self/maps names a file under dir, s's data directory.
func closeChecked(t *testing.T, s *Server, dir string) {
	t.Helper()
	s.Close()
	deadline := time.Now().Add(leakDeadline)
	for {
		js, ms := s.jobs.stats(), s.MemoryStats()
		maps := mappingsUnder(t, dir)
		drained := js.Queued == 0 && js.Running == 0
		if drained && ms.PinnedSnapshots == 0 && ms.MappedBytes == 0 && ms.ShadowBytes == 0 && len(maps) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Close: jobs %+v, memory %+v, mappings under the data dir %q", js, ms, maps)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// mappingsUnder returns the lines of /proc/self/maps that name a file under
// dir. It returns nil on systems without /proc/self/maps.
func mappingsUnder(t *testing.T, dir string) []string {
	t.Helper()
	if runtime.GOOS != "linux" {
		return nil
	}
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// The kernel names files by their resolved path.
	if resolved, err := filepath.EvalSymlinks(dir); err == nil {
		dir = resolved
	}
	prefix := filepath.Clean(dir) + string(filepath.Separator)
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.Contains(sc.Text(), prefix) {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
