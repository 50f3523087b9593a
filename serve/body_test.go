package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
)

// snapshotBody is a seeded upload of m distinct edges over n vertices with
// weights rounded to hundredths, encoded as clients encode it.
func snapshotBody(seed int64, n, m int) []byte {
	rng := rand.New(rand.NewSource(seed))
	req := SnapshotRequest{Name: "g", GraphJSON: GraphJSON{N: n}}
	seen := make(map[[2]int]bool, m)
	for len(req.Edges) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u >= v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		req.Edges = append(req.Edges, EdgeJSON{U: u, V: v, W: math.Round(100+5900*rng.Float64()) / 100})
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body
}

// bodyCase is a request body; observe selects WatchObserveRequest over
// SnapshotRequest.
type bodyCase struct {
	observe bool
	body    string
}

// fastBodies take the one-pass path: the shapes json.Marshal emits for the
// two request types, plus insignificant whitespace and every number form.
var fastBodies = []bodyCase{
	{false, `{"name":"g","n":3,"edges":[{"u":0,"v":1,"w":1.5},{"u":1,"v":2,"w":-2}]}`},
	{false, ` { "edges" : [ { "w" : 1e-07 , "v" : 2 , "u" : 0 } ] , "n" : 3 , "name" : "a b" } ` + "\n\t\r"},
	{false, `{"name":"g","n":0,"edges":[]}`},
	{false, `{"name":"g","n":2}`},
	{false, `{}`},
	{false, `{"n":-7,"edges":[{}]}`},
	{false, `{"edges":[{"u":-0,"v":123456789012345678,"w":-0}]}`},
	{false, `{"edges":[{"w":0.5E+3},{"w":2e-400},{"w":1.7976931348623157e308},{"w":12345678901234567890123456789012345678}]}`},
	{true, `{"graph":{"n":3,"edges":[{"u":0,"v":1,"w":1}]}}`},
	{true, `{"graph":{}}`},
	{true, `{"delta":[{"u":2,"v":3,"w":6},{"u":2,"v":4,"w":0}]}`},
	{true, `{"delta":[]}`},
	{true, `{}`},
	{true, `{"delta":[],"graph":{"n":1}}`},
}

// fallbackBodies are every kind of input the one-pass parser leaves to
// encoding/json, valid or not.
var fallbackBodies = []bodyCase{
	{false, `{"name":"a\nb","n":1}`},                     // escape
	{false, `{"name":"\u0067"}`},                         // unicode escape
	{false, `{"name":"é","n":1}`},                        // non-ASCII
	{false, "{\"name\":\"a\tb\"}"},                       // control byte in a string
	{false, `{"Name":"a","n":1}`},                        // key case
	{false, `{"name":"a","N":2}`},                        // key case
	{false, `{"name":"a","n":2,"extra":[1,{"x":null}]}`}, // unknown key
	{false, `{"name":"a","name":"b"}`},                   // repeated key
	{false, `{"edges":[{"u":1,"u":2}]}`},                 // repeated edge key
	{false, `{"edges":[{"u":1,"x":2}]}`},                 // unknown edge key
	{false, `{"name":"a","edges":null}`},                 // null
	{false, `{"name":null}`},                             // null
	{false, `{"edges":[null]}`},                          // null edge
	{false, `null`},                                      // null body
	{false, `{"n":1.0}`},                                 // fraction in an int field
	{false, `{"n":1e2}`},                                 // exponent in an int field
	{false, `{"edges":[{"u":2.5}]}`},                     // fraction in an int field
	{false, `{"n":1234567890123456789}`},                 // 19 digits, in range
	{false, `{"n":99999999999999999999}`},                // int out of range
	{false, `{"edges":[{"u":0,"v":1,"w":1e400}]}`},       // float out of range
	{false, `{"n":"5"}`},                                 // string for a number
	{false, `{"name":5}`},                                // number for a string
	{false, `{"edges":{}}`},                              // object for an array
	{false, `{"name":"a"} x`},                            // trailing bytes
	{false, `{"name":"a"}{"name":"b"}`},                  // second value
	{false, `{"name":"a",}`},                             // syntax
	{false, `{"n":01}`},                                  // syntax
	{false, `{"n":-}`},                                   // syntax
	{false, `{"edges":[{"w":1.}]}`},                      // syntax
	{false, `{"edges":[{"w":1e}]}`},                      // syntax
	{false, `{"edges":[{"u":0,"v":1,"w":1}`},             // truncated
	{false, ``},                                          // empty
	{false, "\ufeff{}"},                                  // byte-order mark
	{false, `[]`},                                        // not an object
	{true, `{"graph":null}`},                             // null
	{true, `{"delta":null}`},                             // null
	{true, `{"Delta":[]}`},                               // key case
	{true, `{"graph":{"n":1},"graph":{"n":2}}`},          // repeated key
	{true, `{"graph":{"n":1,"name":"x"}}`},               // key only a snapshot has
	{true, `{"delta":[{"u":0,"v":1,"w":1}],"step":3}`},   // unknown key
}

// decodeBoth runs the one-pass parser and encoding/json on data into fresh
// values of the request type observe selects.
func decodeBoth(observe bool, data []byte) (fast, slow any, fastOK bool, slowErr error) {
	if observe {
		fast, slow = new(WatchObserveRequest), new(WatchObserveRequest)
	} else {
		fast, slow = new(SnapshotRequest), new(SnapshotRequest)
	}
	fastOK = decodeFast(data, fast)
	slowErr = json.NewDecoder(bytes.NewReader(data)).Decode(slow)
	return fast, slow, fastOK, slowErr
}

// sameRequest describes how two decoded requests differ, "" when they do
// not: W compares by bits, and nil and empty slices differ (an empty delta
// is a no-change tick, an absent one a missing observation), as do a nil
// and a non-nil Graph.
func sameRequest(a, b any) string {
	switch a := a.(type) {
	case *SnapshotRequest:
		b := b.(*SnapshotRequest)
		if a.Name != b.Name {
			return fmt.Sprintf("name %q vs %q", a.Name, b.Name)
		}
		return sameGraph(&a.GraphJSON, &b.GraphJSON)
	case *WatchObserveRequest:
		b := b.(*WatchObserveRequest)
		if (a.Graph == nil) != (b.Graph == nil) {
			return fmt.Sprintf("graph nil %v vs %v", a.Graph == nil, b.Graph == nil)
		}
		if a.Graph != nil {
			if d := sameGraph(a.Graph, b.Graph); d != "" {
				return "graph: " + d
			}
		}
		return sameEdges("delta", a.Delta, b.Delta)
	}
	return fmt.Sprintf("unexpected type %T", a)
}

func sameGraph(a, b *GraphJSON) string {
	if a.N != b.N {
		return fmt.Sprintf("n %d vs %d", a.N, b.N)
	}
	return sameEdges("edges", a.Edges, b.Edges)
}

func sameEdges(what string, a, b []EdgeJSON) string {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return fmt.Sprintf("%s: nil %v len %d vs nil %v len %d", what, a == nil, len(a), b == nil, len(b))
	}
	for i := range a {
		if a[i].U != b[i].U || a[i].V != b[i].V || math.Float64bits(a[i].W) != math.Float64bits(b[i].W) {
			return fmt.Sprintf("%s[%d]: %+v vs %+v", what, i, a[i], b[i])
		}
	}
	return ""
}

func TestDecodeFastMatchesJSON(t *testing.T) {
	bodies := append([]bodyCase(nil), fastBodies...)
	for _, seed := range []int64{1, 2} {
		bodies = append(bodies, bodyCase{false, string(snapshotBody(seed, 50, 200))})
	}
	for _, c := range bodies {
		fast, slow, ok, err := decodeBoth(c.observe, []byte(c.body))
		if err != nil {
			t.Fatalf("%.60s: encoding/json: %v", c.body, err)
		}
		if !ok {
			t.Errorf("%.60s: fell back to encoding/json", c.body)
			continue
		}
		if d := sameRequest(fast, slow); d != "" {
			t.Errorf("%.60s: %s", c.body, d)
		}
	}
}

// TestDecodeBodyFallbacks sends each fallback body through the handler's
// decode and checks it fell back: the value and the error are encoding/json's.
func TestDecodeBodyFallbacks(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for _, c := range fallbackBodies {
		fast, slow, ok, slowErr := decodeBoth(c.observe, []byte(c.body))
		if ok {
			t.Errorf("%q: taken by the one-pass parser", c.body)
		}
		if d := sameRequest(fast, zeroLike(fast)); d != "" {
			t.Errorf("%q: rejected but left %s", c.body, d)
		}
		got := zeroLike(slow)
		r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(c.body))
		err := s.decodeEdgeBody(httptest.NewRecorder(), r, got)
		want := error(nil)
		if slowErr != nil {
			want = bodyError(slowErr)
		}
		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Errorf("%q: error %v, want %v", c.body, err, want)
		}
		if err == nil {
			if d := sameRequest(got, slow); d != "" {
				t.Errorf("%q: %s", c.body, d)
			}
		}
	}
}

func zeroLike(v any) any {
	if _, ok := v.(*WatchObserveRequest); ok {
		return new(WatchObserveRequest)
	}
	return new(SnapshotRequest)
}

// TestReadBody reads bodies whole whatever their Content-Length says:
// absent, exact, past the pre-size cap, or delivered a byte at a time.
func TestReadBody(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789"), maxPresize/4)
	for _, c := range []struct {
		body          []byte
		contentLength int64
		oneByte       bool
	}{
		{nil, 0, false},
		{[]byte("{}"), -1, false},
		{big[:2000], -1, true},
		{big[:2000], 2000, true},
		{big, int64(len(big)), false},
	} {
		var r io.Reader = bytes.NewReader(c.body)
		if c.oneByte {
			r = iotest.OneByteReader(r)
		}
		got, err := readBody(r, c.contentLength, 32<<20)
		if err != nil || !bytes.Equal(got, c.body) {
			t.Errorf("%d-byte body, Content-Length %d: read %d bytes, %v", len(c.body), c.contentLength, len(got), err)
		}
	}
}

// TestEdgeBodyOverLimit checks that an edge-list body past MaxBodyBytes is
// a 413 even when its JSON breaks before the limit, and that a body at the
// limit still decodes.
func TestEdgeBodyOverLimit(t *testing.T) {
	s := New(Config{MaxBodyBytes: 64})
	defer s.Close()
	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/v1/snapshots", `{"name":` + strings.Repeat(" ", 100) + `}`, http.StatusRequestEntityTooLarge},
		{"/v1/snapshots", `nonsense` + strings.Repeat(" ", 100), http.StatusRequestEntityTooLarge},
		{"/v1/snapshots", `{"name":"g","n":2,"edges":[{"u":0,"v":1,"w":1}]}` + strings.Repeat(" ", 15), http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != c.want {
			t.Errorf("%d-byte body: status %d (%s), want %d", len(c.body), rec.Code, rec.Body, c.want)
		}
	}
}

// FuzzDecodeBody checks the one-pass parser against encoding/json: any
// body it accepts, encoding/json accepts too and decodes to the same value,
// field by field; a body it rejects leaves its output untouched.
func FuzzDecodeBody(f *testing.F) {
	for _, c := range fastBodies {
		f.Add(c.observe, []byte(c.body))
	}
	for _, c := range fallbackBodies {
		f.Add(c.observe, []byte(c.body))
	}
	f.Add(false, snapshotBody(3, 20, 30))
	f.Fuzz(func(t *testing.T, observe bool, data []byte) {
		fast, slow, ok, err := decodeBoth(observe, data)
		if !ok {
			if d := sameRequest(fast, zeroLike(fast)); d != "" {
				t.Fatalf("rejected %q but left %s", data, d)
			}
			return
		}
		if err != nil {
			t.Fatalf("accepted %q, which encoding/json rejects: %v", data, err)
		}
		if d := sameRequest(fast, slow); d != "" {
			t.Fatalf("%q: %s", data, d)
		}
	})
}

// BenchmarkDecodeSnapshotBody decodes a 2,000-vertex, 4,500-edge upload
// (129 KB, about the size of perfbench ingest-churn's) both ways.
func BenchmarkDecodeSnapshotBody(b *testing.B) {
	body := snapshotBody(1, 2000, 4500)
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, err := readBody(bytes.NewReader(body), int64(len(body)), 32<<20)
			var req SnapshotRequest
			if err != nil || !decodeFast(buf, &req) {
				b.Fatal("fell back")
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req SnapshotRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
