package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"rtdls/internal/errs"
)

// refDecodeBody is the /v1/submit decoder from before decodeTask, the
// reference that decodeTask is held to: encoding/json with strict field
// checking over http.MaxBytesReader, then nothing but whitespace up to the
// end of the body, and a 413 that closes the connection.
func (s *Server) refDecodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil || errors.As(err, new(*json.SyntaxError)) {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			w.Header().Set("Connection", "close")
			s.writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
				Error:  fmt.Sprintf("server: body exceeds %d bytes", maxErr.Limit),
				Code:   http.StatusRequestEntityTooLarge,
				Reason: errs.ReasonBadRequest,
			})
			return false
		}
		s.writeError(w, fmt.Errorf("server: malformed request body: %v: %w", err, errs.ErrBadConfig))
		return false
	}
	return true
}

// decodeMaxBody is the body bound of the decoding tests: small enough
// that fuzzed bodies cross it.
const decodeMaxBody = 64

func newDecodeServer(t testing.TB) *Server {
	t.Helper()
	srv, err := New(Config{Engine: newStubEngine(scriptedDecision), MaxBody: decodeMaxBody})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// bodyModes are the ways a body reaches the decoder: with its exact
// Content-Length; chunked, one byte per Read; and cut short of a longer
// Content-Length, ending in io.EOF (as a bare reader does) or in
// io.ErrUnexpectedEOF (as net/http's body does when the client hangs up).
var bodyModes = []string{"length", "chunked", "short EOF", "short hangup"}

func bodyRequest(body []byte, mode string) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/v1/submit", nil)
	var rd io.Reader = bytes.NewReader(body)
	r.ContentLength = int64(len(body))
	switch mode {
	case "chunked":
		rd, r.ContentLength = iotest.OneByteReader(rd), -1
	case "short EOF":
		r.ContentLength += 5
	case "short hangup":
		rd, r.ContentLength = io.MultiReader(rd, iotest.ErrReader(io.ErrUnexpectedEOF)), r.ContentLength+5
	}
	r.Body = io.NopCloser(rd)
	return r
}

// sameTaskRequest compares field for field, floats bit for bit.
func sameTaskRequest(a, b TaskRequest) bool {
	return a.ID == b.ID && a.UserN == b.UserN &&
		math.Float64bits(a.Arrival) == math.Float64bits(b.Arrival) &&
		math.Float64bits(a.Sigma) == math.Float64bits(b.Sigma) &&
		math.Float64bits(a.Deadline) == math.Float64bits(b.Deadline)
}

// checkSubmitDecoding requires decodeTask and the reference to answer
// body alike in every mode: the same result, status, headers and response
// bytes, and the same decoded request.
func checkSubmitDecoding(t *testing.T, srv *Server, body []byte) {
	t.Helper()
	for _, mode := range bodyModes {
		var got, want TaskRequest
		gw, ww := httptest.NewRecorder(), httptest.NewRecorder()
		gok := srv.decodeTask(gw, bodyRequest(body, mode), &got)
		wok := srv.refDecodeBody(ww, bodyRequest(body, mode), &want)
		if gok != wok || gw.Code != ww.Code || gw.Body.String() != ww.Body.String() ||
			!reflect.DeepEqual(gw.Header(), ww.Header()) || !sameTaskRequest(got, want) {
			t.Fatalf("%s, body %q:\n got %v %d %v %q %+v\nwant %v %d %v %q %+v", mode, body,
				gok, gw.Code, gw.Header(), gw.Body, got, wok, ww.Code, ww.Header(), ww.Body, want)
		}
	}
}

// submitDecodingSeeds covers the canonical body and each way a body can
// leave it.
var submitDecodingSeeds = []string{
	`{"id":7,"arrival":12.5,"sigma":200,"deadline":2800,"user_n":4}`,
	`{"sigma":200,"deadline":2800}`,
	" {\n\t\"sigma\" : 2e2 ,\r\"deadline\":2.8E+3 } \n",
	`{"ID":7,"sigma":200,"deadline":2800}`,
	`{"Sigma":200,"deadline":2800}`,
	`{"sigma":1,"sigma":200,"deadline":2800,"deadline":1}`,
	`{"sigma":200,"deadline":2800,"bogus":1}`,
	`{"sigma":null,"deadline":2800}`,
	`{"id":1.0,"sigma":200,"deadline":2800}`,
	`{"id":1e2,"sigma":200,"deadline":2800}`,
	`{"sigma":1e400,"deadline":2800}`,
	`{"sigma":1e-400,"deadline":2800}`,
	`{"arrival":-0,"id":-0,"sigma":200,"deadline":2800}`,
	`{"sigma":+1,"deadline":2800}`,
	`{"sigma":.5,"deadline":2800}`,
	`{"sigma":1.,"deadline":2800}`,
	`{"sigma":1.e5,"deadline":2800}`,
	`{"sigma":01,"deadline":2800}`,
	`{"id":12345678901234567890,"sigma":200,"deadline":2800}`,
	`{"user_n":9223372036854775808,"sigma":200,"deadline":2800}`,
	`{"sig\u006da":200,"deadline":2800}`,
	`{"sigma":200,"deadline":2800} x`,
	`{"sigma":200,"deadline":2800}{"sigma":1}`,
	`{"sigma":200,"deadline":2800,}`,
	`{"sigma":"200","deadline":2800}`,
	`{"sigma":[200],"deadline":2800}`,
	"\ufeff" + `{"sigma":200,"deadline":2800}`,
	`{}`,
	`{"sigma":200,"deadline":2800`,
	` `,
	``,
	`{"sigma":200,"deadline":2800}` + strings.Repeat(" ", decodeMaxBody),
}

// FuzzSubmitDecoding holds the /v1/submit decoder to the encoding/json
// reference it replaced: for arbitrary bytes, sent with a Content-Length,
// chunked, or cut short, under a body bound they can cross, the status,
// headers, response bytes and decoded request are the reference's.
func FuzzSubmitDecoding(f *testing.F) {
	for _, s := range submitDecodingSeeds {
		f.Add([]byte(s))
	}
	srv := newDecodeServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSubmitDecoding(t, srv, body)
	})
}

// TestParseTask pins which bodies the hand parser decodes itself: the
// canonical form, with the values encoding/json gives, and nothing else.
func TestParseTask(t *testing.T) {
	for _, body := range []string{
		`{"id":7,"arrival":12.5,"sigma":200,"deadline":2800,"user_n":4}`,
		" {\n\t\"sigma\" : 2e2 ,\r\"deadline\":2.8E+3 } \n",
		`{"sigma":1,"sigma":200,"deadline":2800,"deadline":1}`,
		`{"arrival":-0,"id":-0,"sigma":1e-400,"deadline":0.5e-3}`,
		`{"id":-9223372036854775808,"user_n":9223372036854775807}`,
	} {
		var got, want TaskRequest
		if !parseTask([]byte(body), &got) {
			t.Fatalf("parseTask declined %q", body)
		}
		if err := json.Unmarshal([]byte(body), &want); err != nil || !sameTaskRequest(got, want) {
			t.Fatalf("parseTask(%q) = %+v, encoding/json gives %+v (%v)", body, got, want, err)
		}
	}
	for _, body := range []string{
		`{"ID":7,"sigma":200,"deadline":2800}`,
		`{"sigma":200,"deadline":2800,"bogus":1}`,
		`{"sigma":null,"deadline":2800}`,
		`{"id":1.0,"sigma":200,"deadline":2800}`,
		`{"user_n":1e2,"sigma":200,"deadline":2800}`,
		`{"sigma":1e400,"deadline":2800}`,
		`{"id":12345678901234567890,"sigma":200,"deadline":2800}`,
		`{"sigma":+1,"deadline":2800}`,
		`{"sigma":.5,"deadline":2800}`,
		`{"sigma":1.,"deadline":2800}`,
		`{"sigma":1.e5,"deadline":2800}`,
		`{"sigma":1e,"deadline":2800}`,
		`{"sigma":01,"deadline":2800}`,
		`{"sig\u006da":200,"deadline":2800}`,
		`{"sigma":200,"deadline":2800} x`,
		`{"sigma":200,"deadline":2800}{}`,
		`{"sigma":200,"deadline":2800,}`,
		`{"sigma":"200","deadline":2800}`,
		"\ufeff" + `{"sigma":200,"deadline":2800}`,
		`{"sigma":200,"deadline":2800`,
		`{}`,
		``,
	} {
		if parseTask([]byte(body), new(TaskRequest)) {
			t.Fatalf("parseTask accepted %q", body)
		}
	}
}

// TestSubmitBodyOverLimit checks the 413 for a body over MaxBody, declared
// by its Content-Length or sent chunked, over a real connection: the
// status, the error body, and a connection closed after the reply rather
// than kept open while the server reads through the rest of the body.
func TestSubmitBodyOverLimit(t *testing.T) {
	h := newDecodeServer(t).Handler()
	var length int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		length = r.ContentLength
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	body := `{"sigma":200,"deadline":2800` + strings.Repeat(" ", decodeMaxBody) + `}`
	for _, tc := range []struct {
		name string
		body io.Reader
	}{
		{"content-length", strings.NewReader(body)},
		{"chunked", io.MultiReader(strings.NewReader(body))},
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/submit", "application/json", tc.body)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if chunked := length < 0; chunked != (tc.name == "chunked") {
			t.Fatalf("%s: request arrived with Content-Length %d", tc.name, length)
		}
		want := fmt.Sprintf(`{"error":"server: body exceeds %d bytes","code":413,"reason":%q}`+"\n",
			decodeMaxBody, string(errs.ReasonBadRequest))
		if resp.StatusCode != http.StatusRequestEntityTooLarge || string(raw) != want || !resp.Close {
			t.Fatalf("%s: %d %q (close %v), want 413 %q (close true)", tc.name, resp.StatusCode, raw, resp.Close, want)
		}
	}
}

// probeBody serves body and then fails with err, recording the largest
// buffer a Read was offered and how many bytes it handed out.
type probeBody struct {
	body    []byte
	err     error
	largest int
	served  int
}

func (p *probeBody) Read(b []byte) (int, error) {
	p.largest = max(p.largest, len(b))
	if p.served == len(p.body) {
		return 0, p.err
	}
	n := copy(b, p.body[p.served:])
	p.served += n
	return n, nil
}

// TestSubmitBodyNotSizedFromHeader checks that the heap a submit holds
// follows the bytes that arrive, not the Content-Length that the client
// declares. A request that declares the whole MaxBody and sends nothing
// must not be given a buffer near that size, and a long body that is
// malformed at its start must not be read to its end.
func TestSubmitBodyNotSizedFromHeader(t *testing.T) {
	srv, err := New(Config{Engine: newStubEngine(scriptedDecision)})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	maxBody := srv.maxBody
	idle := func() *probeBody {
		p := &probeBody{err: io.ErrUnexpectedEOF}
		r := httptest.NewRequest(http.MethodPost, "/v1/submit", p)
		r.ContentLength = maxBody
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("declared %d bytes, sent none: status %d, want 400", maxBody, w.Code)
		}
		return p
	}
	idle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := idle()
	runtime.ReadMemStats(&after)
	if p.largest > readWholeMax {
		t.Errorf("declared %d bytes, sent none: the body was offered a %d-byte buffer", maxBody, p.largest)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(maxBody)/4 {
		t.Errorf("declared %d bytes, sent none: the request allocated %d bytes", maxBody, grew)
	}

	bad := append([]byte(`{"sigma":x`), bytes.Repeat([]byte(" "), 64<<10)...)
	p = &probeBody{body: bad, err: io.EOF}
	r := httptest.NewRequest(http.MethodPost, "/v1/submit", p)
	r.ContentLength = int64(len(bad))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("malformed %d-byte body: status %d, want 400", len(bad), w.Code)
	}
	if p.served > readWholeMax {
		t.Errorf("malformed %d-byte body: %d bytes read before the 400", len(bad), p.served)
	}
}

// TestSubmitTruncatedBody sends a Content-Length longer than the bytes
// that follow and then hangs up. The body is a 400 naming the unexpected
// EOF whether it is cut inside the object or after it: only the end of the
// body shows that nothing follows the value.
func TestSubmitTruncatedBody(t *testing.T) {
	ts := httptest.NewServer(newDecodeServer(t).Handler())
	defer ts.Close()
	cut := fmt.Sprintf(`{"error":"server: malformed request body: unexpected EOF: %s","code":400,"reason":%q}`+"\n",
		errs.ErrBadConfig, string(errs.ReasonBadRequest))
	for _, tc := range []struct {
		sent   string
		status int
		body   string
	}{
		{`{"id":1,"sigma":200,"deadline":2800}`, http.StatusBadRequest, cut},
		{`{"id":1,"sigma":200,"dead`, http.StatusBadRequest, cut},
	} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST /v1/submit HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			len(tc.sent)+10, tc.sent)
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		conn.Close()
		if resp.StatusCode != tc.status || (tc.body != "" && string(raw) != tc.body) {
			t.Fatalf("%q cut short: %d %q, want %d %q", tc.sent, resp.StatusCode, raw, tc.status, tc.body)
		}
	}
}
