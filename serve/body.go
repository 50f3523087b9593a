package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
)

// The two request bodies that carry edge lists, SnapshotRequest and
// WatchObserveRequest, are most of the bytes dcsd reads, and encoding/json
// spends more time on a 2,000-vertex upload than the solver does on mining
// it: it scans the body once to validate it and again, by reflection, to
// fill the struct. decodeEdgeBody instead reads the body into one buffer and
// parses the canonical shape — exact lower-case keys, each at most once,
// printable-ASCII strings without escapes, integer literals for int fields —
// in one pass with strconv. On anything else it discards its partial result
// and hands the same bytes to encoding/json, so every body decodes to the
// value, or fails with the error, it always did.

// minEdgeBytes is a lower bound on the bytes of one canonical edge,
// `{"u":0,"v":1,"w":1},`: it caps the pre-sized edge slice at a fraction of
// the body, however many braces a hostile body holds.
const minEdgeBytes = 16

// decodeEdgeBody decodes a SnapshotRequest or WatchObserveRequest body into
// out (a zero value), bounded by MaxBodyBytes. A body over the limit is a
// 413 however early its JSON goes wrong, because it is read whole first.
func (s *Server) decodeEdgeBody(w http.ResponseWriter, r *http.Request, out any) error {
	buf, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength, s.cfg.MaxBodyBytes)
	if err != nil {
		return bodyError(err)
	}
	if decodeFast(buf, out) {
		return nil
	}
	if err := json.NewDecoder(bytes.NewReader(buf)).Decode(out); err != nil {
		return bodyError(err)
	}
	return nil
}

// maxPresize caps the buffer readBody allocates on a client's word: a
// Content-Length of MaxBodyBytes with a trickle of bytes behind it must not
// pin that much memory per connection. Larger bodies grow the buffer.
const maxPresize = 1 << 20

// readBody reads body to its end into one buffer, sized from the request's
// Content-Length (capped at limit and maxPresize) when the client sent one.
func readBody(body io.Reader, contentLength, limit int64) ([]byte, error) {
	size := int64(512)
	if contentLength > 0 {
		size = min(contentLength, limit, maxPresize)
	}
	// One spare byte, so the read that reports EOF does not grow the buffer.
	buf := make([]byte, 0, size+1)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// decodeFast parses buf into out, a *SnapshotRequest or
// *WatchObserveRequest, and reports whether it could. On false out is
// untouched.
func decodeFast(buf []byte, out any) bool {
	p := bodyParser{buf: buf}
	switch out := out.(type) {
	case *SnapshotRequest:
		var req SnapshotRequest
		ok := p.object(func(key []byte) (uint, bool) {
			if string(key) == "name" {
				name, ok := p.plainString()
				req.Name = string(name)
				return 4, ok
			}
			return p.graphMember(key, &req.GraphJSON)
		})
		if ok && p.end() {
			*out = req
			return true
		}
	case *WatchObserveRequest:
		var req WatchObserveRequest
		ok := p.object(func(key []byte) (uint, bool) {
			switch string(key) {
			case "graph":
				req.Graph = new(GraphJSON)
				return 1, p.object(func(key []byte) (uint, bool) { return p.graphMember(key, req.Graph) })
			case "delta":
				return 2, p.edges(&req.Delta)
			}
			return 0, false
		})
		if ok && p.end() {
			*out = req
			return true
		}
	}
	return false
}

// bodyParser is the one-pass parser behind decodeFast. Every method
// reports false for input outside the canonical shape, which sends the
// whole body to encoding/json.
type bodyParser struct {
	buf []byte
	pos int
}

// object parses one object. member is called with the parser at each key's
// value; it parses the value and returns a bit naming the key, or false for
// an unknown key or a bad value. A repeated key fails the object.
func (p *bodyParser) object(member func(key []byte) (bit uint, ok bool)) bool {
	if !p.next('{') {
		return false
	}
	if p.next('}') {
		return true
	}
	var seen uint
	for {
		key, ok := p.plainString()
		if !ok || !p.next(':') {
			return false
		}
		bit, ok := member(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if p.next('}') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// graphMember parses one member of a GraphJSON object (bits 1 and 2).
func (p *bodyParser) graphMember(key []byte, g *GraphJSON) (uint, bool) {
	switch string(key) {
	case "n":
		return 1, p.intLit(&g.N)
	case "edges":
		return 2, p.edges(&g.Edges)
	}
	return 0, false
}

// edges parses an edge array into a fresh slice, non-nil even when empty,
// as encoding/json leaves it.
func (p *bodyParser) edges(dst *[]EdgeJSON) bool {
	if !p.next('[') {
		return false
	}
	rest := p.buf[p.pos:]
	es := make([]EdgeJSON, 0, min(bytes.Count(rest, []byte{'{'}), len(rest)/minEdgeBytes))
	if !p.next(']') {
		for {
			var e EdgeJSON
			ok := p.object(func(key []byte) (uint, bool) {
				switch string(key) {
				case "u":
					return 1, p.intLit(&e.U)
				case "v":
					return 2, p.intLit(&e.V)
				case "w":
					return 4, p.floatLit(&e.W)
				}
				return 0, false
			})
			if !ok {
				return false
			}
			es = append(es, e)
			if p.next(']') {
				break
			}
			if !p.next(',') {
				return false
			}
		}
	}
	*dst = es
	return true
}

// plainString scans a string literal of printable ASCII without escapes
// and returns its contents, aliasing the buffer.
func (p *bodyParser) plainString() ([]byte, bool) {
	if !p.next('"') {
		return nil, false
	}
	for i := p.pos; i < len(p.buf); i++ {
		switch c := p.buf[i]; {
		case c == '"':
			s := p.buf[p.pos:i]
			p.pos = i + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// intLit parses an integer literal of at most 18 digits, which fits any
// 64-bit int; longer literals, fractions and exponents are left to
// encoding/json and its range errors.
func (p *bodyParser) intLit(dst *int) bool {
	lit, integer := p.number()
	if !integer {
		return false
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if len(lit) > 18 {
		return false
	}
	var n int64
	for _, c := range lit {
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	if int64(int(n)) != n {
		return false // 32-bit int
	}
	*dst = int(n)
	return true
}

// floatLit parses a number literal with strconv.ParseFloat, as encoding/json
// does; out-of-range literals are left to encoding/json's error.
func (p *bodyParser) floatLit(dst *float64) bool {
	lit, _ := p.number()
	if lit == nil {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return false
	}
	*dst = f
	return true
}

// number scans a JSON number literal, -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?,
// and reports whether it has neither fraction nor exponent. lit is nil when
// no literal starts here.
func (p *bodyParser) number() (lit []byte, integer bool) {
	p.skipSpace()
	b, i := p.buf, p.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	lit, p.pos = b[p.pos:i], i
	return lit, integer
}

// digits returns the index after the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// next consumes byte c after optional whitespace.
func (p *bodyParser) next(c byte) bool {
	p.skipSpace()
	if p.pos < len(p.buf) && p.buf[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (p *bodyParser) end() bool {
	p.skipSpace()
	return p.pos == len(p.buf)
}

func (p *bodyParser) skipSpace() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}
