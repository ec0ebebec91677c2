package server

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"rtdls/internal/errs"
)

// stdEncode is the reference: what encoding/json writes for v.
func stdEncode(t testing.TB, v any) ([]byte, error) {
	t.Helper()
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}

func TestDecisionEncodingGolden(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		d    DecisionResponse
		want string
	}{
		{"accept", DecisionResponse{TaskID: 7, Accepted: true, At: 12.5, Shard: 2, Code: 200,
			Nodes: []int{0, 3}, Starts: []float64{0, 1e-7}, Alphas: []float64{0.25, 0.75}, Est: 1e20, Rounds: 1},
			`{"task_id":7,"accepted":true,"at":12.5,"shard":2,"code":200,"nodes":[0,3],"starts":[0,1e-7],"alphas":[0.25,0.75],"est":100000000000000000000,"rounds":1}`},
		{"negative zero", DecisionResponse{At: negZero, Est: negZero, RetryAfter: negZero},
			`{"task_id":0,"accepted":false,"at":-0,"shard":0,"code":0}`},
		{"extremes", DecisionResponse{TaskID: math.MaxInt64, At: 5e-324, Est: 1e21,
			Starts: []float64{math.MaxFloat64, -1e-6, -9.99e-7}},
			`{"task_id":9223372036854775807,"accepted":false,"at":5e-324,"shard":0,"code":0,"starts":[1.7976931348623157e+308,-0.000001,-9.99e-7],"est":1e+21}`},
		{"negative id", DecisionResponse{TaskID: -1, At: 3, Reason: errs.ReasonInfeasible, Code: 422},
			`{"task_id":-1,"accepted":false,"at":3,"shard":0,"reason":"infeasible","code":422}`},
		{"empty slices", DecisionResponse{Nodes: []int{}, Starts: []float64{}, Alphas: []float64{}},
			`{"task_id":0,"accepted":false,"at":0,"shard":0,"code":0}`},
		{"busy", DecisionResponse{TaskID: 4, At: 1e-6, Shard: 3, Reason: errs.ReasonBusy, Code: 429, RetryAfter: 1.5},
			`{"task_id":4,"accepted":false,"at":0.000001,"shard":3,"reason":"busy","code":429,"retry_after":1.5}`},
	}
	for _, r := range errs.Reasons() {
		cases = append(cases, struct {
			name string
			d    DecisionResponse
			want string
		}{"reason " + string(r), DecisionResponse{TaskID: 1, Reason: r, Code: r.Code()}, ""})
	}
	for _, c := range cases {
		ref, err := stdEncode(t, c.d)
		if err != nil {
			t.Fatalf("%s: encoding/json: %v", c.name, err)
		}
		if c.want != "" && string(ref) != c.want+"\n" {
			t.Fatalf("%s: golden drifted from encoding/json:\n got %s\nwant %s", c.name, ref, c.want)
		}
		got, ok := appendDecision(nil, &c.d)
		if !ok || !bytes.Equal(got, ref) {
			t.Fatalf("%s: hand encoder (ok=%v):\n got %s\nwant %s", c.name, ok, got, ref)
		}
	}
}

func TestDecisionEncodingDeclines(t *testing.T) {
	for name, d := range map[string]DecisionResponse{
		"+Inf est":     {Est: math.Inf(1)},
		"NaN at":       {At: math.NaN()},
		"-Inf start":   {Starts: []float64{1, math.Inf(-1)}},
		"NaN alpha":    {Alphas: []float64{math.NaN()}},
		"+Inf retry":   {RetryAfter: math.Inf(1)},
		"html reason":  {Reason: "a<b"},
		"quote reason": {Reason: `"`},
	} {
		if _, ok := appendDecision(nil, &d); ok {
			t.Fatalf("%s: hand encoder accepted it", name)
		}
	}
}

// FuzzDecisionResponseEncoding checks the hand encoder against
// json.NewEncoder(&b).Encode byte for byte: wherever the hand encoder
// answers, the bytes are equal; wherever it declines, encoding/json either
// fails too (a non-finite number) or the reason is not plain ASCII.
func FuzzDecisionResponseEncoding(f *testing.F) {
	f.Add(int64(7), true, 12.5, 2, "", 200, 0.0, uint8(2), 1e-7, 0.25, 1e20, 1)
	f.Add(int64(-1), false, math.Copysign(0, -1), 0, "infeasible", 422, 0.0, uint8(0), 0.0, 0.0, 0.0, 0)
	f.Add(int64(math.MaxInt64), false, 5e-324, 3, "busy", 429, 1.5, uint8(1), math.MaxFloat64, 1e21, -0.0, 0)
	f.Add(int64(0), true, math.Inf(1), 0, "a<b", 0, math.NaN(), uint8(3), -1e-6, 9.99e-7, 0.0, -4)
	f.Fuzz(func(t *testing.T, id int64, acc bool, at float64, shard int, reason string, code int,
		retry float64, n uint8, start, alpha, est float64, rounds int) {
		d := DecisionResponse{TaskID: id, Accepted: acc, At: at, Shard: shard, Reason: errs.Reason(reason),
			Code: code, RetryAfter: retry, Est: est, Rounds: rounds}
		for i := 0; i < int(n%6); i++ {
			d.Nodes = append(d.Nodes, i*shard)
			d.Starts = append(d.Starts, start*float64(i))
			d.Alphas = append(d.Alphas, alpha/float64(i+1))
		}
		ref, err := stdEncode(t, d)
		got, ok := appendDecision(nil, &d)
		switch {
		case ok && err != nil:
			t.Fatalf("hand encoder wrote %s where encoding/json failed: %v", got, err)
		case ok && !bytes.Equal(got, ref):
			t.Fatalf("hand encoder:\n got %s\nwant %s", got, ref)
		case !ok && err == nil && plainASCII(reason):
			t.Fatalf("hand encoder declined %s", ref)
		}
	})
}

// plainASCII reports whether s is printable ASCII free of the bytes
// encoding/json escapes.
func plainASCII(s string) bool {
	for _, c := range []byte(s) {
		if c < 0x20 || c > 0x7e || strings.ContainsRune(`"\<>&`, rune(c)) {
			return false
		}
	}
	return true
}
