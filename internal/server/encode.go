package server

import (
	"bytes"
	"math"
	"strconv"
	"sync"
)

// Response bodies are built in pooled buffers. A buffer that grew past
// maxPooledBuffer (a large batch or stats body) is left to the collector
// rather than pinned in the pool.
const maxPooledBuffer = 64 << 10

var bufferPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuffer() *bytes.Buffer {
	b := bufferPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuffer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuffer {
		bufferPool.Put(b)
	}
}

// appendDecision appends the encoding of d that json.NewEncoder(w).Encode
// writes, byte for byte: the same field order, the same omitempty set, the
// same number forms and the trailing newline. It reports false, leaving
// the caller to fall back to encoding/json, for what it does not encode
// itself: a NaN or an infinity (which encoding/json refuses) and a Reason
// with a byte that encoding/json would escape.
func appendDecision(b []byte, d *DecisionResponse) ([]byte, bool) {
	var ok bool
	b = append(b, `{"task_id":`...)
	b = strconv.AppendInt(b, d.TaskID, 10)
	b = append(b, `,"accepted":`...)
	b = strconv.AppendBool(b, d.Accepted)
	b = append(b, `,"at":`...)
	if b, ok = appendFloat(b, d.At); !ok {
		return b, false
	}
	b = append(b, `,"shard":`...)
	b = strconv.AppendInt(b, int64(d.Shard), 10)
	if d.Reason != "" {
		b = append(b, `,"reason":`...)
		if b, ok = appendPlainString(b, string(d.Reason)); !ok {
			return b, false
		}
	}
	b = append(b, `,"code":`...)
	b = strconv.AppendInt(b, int64(d.Code), 10)
	if d.RetryAfter != 0 {
		b = append(b, `,"retry_after":`...)
		if b, ok = appendFloat(b, d.RetryAfter); !ok {
			return b, false
		}
	}
	if len(d.Nodes) > 0 {
		b = append(b, `,"nodes":[`...)
		for i, n := range d.Nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(n), 10)
		}
		b = append(b, ']')
	}
	if len(d.Starts) > 0 {
		b = append(b, `,"starts":`...)
		if b, ok = appendFloats(b, d.Starts); !ok {
			return b, false
		}
	}
	if len(d.Alphas) > 0 {
		b = append(b, `,"alphas":`...)
		if b, ok = appendFloats(b, d.Alphas); !ok {
			return b, false
		}
	}
	if d.Est != 0 {
		b = append(b, `,"est":`...)
		if b, ok = appendFloat(b, d.Est); !ok {
			return b, false
		}
	}
	if d.Rounds != 0 {
		b = append(b, `,"rounds":`...)
		b = strconv.AppendInt(b, int64(d.Rounds), 10)
	}
	return append(b, "}\n"...), true
}

func appendFloats(b []byte, vs []float64) ([]byte, bool) {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = appendFloat(b, v); !ok {
			return b, false
		}
	}
	return append(b, ']'), true
}

// appendFloat appends v as encoding/json writes a float64: the shortest
// 'f' form, or 'e' below 1e-6 and from 1e21 in magnitude, with a
// two-digit negative exponent shortened (1e-07 becomes 1e-7).
func appendFloat(b []byte, v float64) ([]byte, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendPlainString appends s quoted when no byte of it needs escaping
// under encoding/json's rules (HTML escaping included), else reports false.
func appendPlainString(b []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return b, false
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), true
}
