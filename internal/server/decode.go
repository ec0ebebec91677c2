package server

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
)

// readWholeMax bounds the declared length of a submit body that
// decodeTask reads whole. The buffer is sized from the Content-Length
// before any byte arrives, so this is the heap that one request which
// declares a length and then sends nothing can hold; a canonical body is
// about 90 bytes. Longer bodies are decoded as they stream in, and
// encoding/json stops reading them at the first malformed byte.
const readWholeMax = 4 << 10

// decodeTask reads one /v1/submit body into req. A body whose declared
// length is within MaxBody and readWholeMax is read whole into a pooled
// buffer (net/http ends it at its Content-Length, so no size guard is
// needed) and handed to parseTask. A chunked or longer body, a read error
// and a body parseTask declines all go to decodeBody's encoding/json
// path, over the same bytes and the same error, so every body gets the
// status, error text and value it would get from encoding/json alone. On
// failure it writes the 400 (413 over MaxBody) and reports false.
func (s *Server) decodeTask(w http.ResponseWriter, r *http.Request, req *TaskRequest) bool {
	if r.ContentLength < 0 || r.ContentLength > min(s.maxBody, readWholeMax) {
		return s.decodeTaskJSON(w, http.MaxBytesReader(w, r.Body, s.maxBody), req)
	}
	n := int(r.ContentLength)
	buf := getBuffer()
	defer putBuffer(buf)
	buf.Grow(n)
	b := buf.AvailableBuffer()[:n]
	read := 0
	var err error
	for read < len(b) && err == nil {
		var m int
		m, err = r.Body.Read(b[read:])
		read += m
	}
	if read == len(b) && parseTask(b, req) {
		return true
	}
	if err == nil {
		err = io.EOF
	}
	return s.decodeTaskJSON(w, io.MultiReader(bytes.NewReader(b[:read]), errReader{err}), req)
}

// decodeTaskJSON is decodeBody into a TaskRequest of its own, copied out
// afterwards, so that req does not escape to the heap on the path that
// parseTask serves.
func (s *Server) decodeTaskJSON(w http.ResponseWriter, body io.Reader, req *TaskRequest) bool {
	var v TaskRequest
	ok := s.decodeBody(w, body, &v)
	*req = v
	return ok
}

// errReader returns err from every Read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// parseTask parses b as a TaskRequest in the canonical form that
// json.Marshal writes: one object, whose keys are the exact lowercase
// names "id", "arrival", "sigma", "deadline" and "user_n", each holding a
// JSON number (an integer literal for id and user_n) that strconv parses
// without error, with JSON whitespace around the tokens and nothing after
// the object. A duplicate key keeps its last value, as in encoding/json.
// It reports false for anything else — a key in another case, an escape,
// null, a string, nesting, a byte-order mark, trailing bytes — and leaves
// that body to encoding/json; req may then hold part of the body's values.
// An empty object is left to encoding/json too.
func parseTask(b []byte, req *TaskRequest) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	for {
		if i == len(b) || b[i] != '"' {
			return false
		}
		i++
		k := i
		for i < len(b) && b[i] != '"' && b[i] != '\\' {
			i++
		}
		if i == len(b) || b[i] != '"' {
			return false
		}
		key := b[k:i]
		i = skipSpace(b, i+1)
		if i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		end, integer := scanNumber(b, i)
		if end < 0 {
			return false
		}
		num := b[i:end]
		var err error
		switch string(key) {
		case "id":
			if !integer {
				return false
			}
			req.ID, err = strconv.ParseInt(string(num), 10, 64)
		case "user_n":
			if !integer {
				return false
			}
			var v int64
			v, err = strconv.ParseInt(string(num), 10, strconv.IntSize)
			req.UserN = int(v)
		case "arrival":
			req.Arrival, err = strconv.ParseFloat(string(num), 64)
		case "sigma":
			req.Sigma, err = strconv.ParseFloat(string(num), 64)
		case "deadline":
			req.Deadline, err = strconv.ParseFloat(string(num), 64)
		default:
			return false // an unknown key, or a known one in another case
		}
		if err != nil {
			return false
		}
		i = skipSpace(b, end)
		if i == len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return skipSpace(b, i+1) == len(b) // nothing after the object
		default:
			return false
		}
	}
}

// scanNumber returns the end of the JSON number that starts at b[i], or
// -1 when none does, and whether it is an integer literal: no fraction
// and no exponent.
func scanNumber(b []byte, i int) (end int, integer bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		if i+1 == len(b) || !isDigit(b[i+1]) {
			return -1, false
		}
		i = skipDigits(b, i+2)
		integer = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return -1, false
		}
		i = skipDigits(b, i+1)
		integer = false
	}
	return i, integer
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
