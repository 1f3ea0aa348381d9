package server

import (
	"encoding/json"
	"strconv"

	"rexptree"
)

// recordDecoder decodes /v1/batch lines into one reused Record.  A line
// in the plain form every client writes — one object with the keys op,
// id, pos, vel, time and expires spelled exactly so, each at most once,
// strings without escapes or non-ASCII bytes, at most MaxDims
// coordinates per array — is decoded by hand, without reflection, and
// its coordinates land in the decoder's own array.  Every other line
// (other key spellings, unknown or repeated keys, null, escapes, a
// parse error, a syntax error) goes to json.Unmarshal, so a line
// decodes to the Record and fails with the error text it always did.
type recordDecoder struct {
	rec    Record
	coords [2 * rexptree.MaxDims]float64 // backs rec.Pos and rec.Vel on the fast path
}

// decode decodes raw into d.rec.  The Record's Pos and Vel may alias
// d's coordinate array: they are valid until the next decode.
func (d *recordDecoder) decode(raw []byte) (*Record, error) {
	d.rec = Record{}
	if d.plain(raw) {
		return &d.rec, nil
	}
	d.rec = Record{}
	return &d.rec, json.Unmarshal(raw, &d.rec)
}

// plain decodes a line in the plain form into d.rec and reports whether
// it was one; on false d.rec holds garbage.
func (d *recordDecoder) plain(b []byte) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return skipSpace(b, i+1) == len(b)
	}
	var seen uint8
	for {
		key, j, ok := plainString(b, i)
		if !ok {
			return false
		}
		i = skipSpace(b, j)
		if i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		var bit uint8
		switch string(key) {
		case "op":
			bit = 1
			var op []byte
			if op, i, ok = plainString(b, i); ok {
				d.rec.Op = opName(op)
			}
		case "id":
			bit = 2
			var num []byte
			if num, i, ok = number(b, i); ok {
				n, err := strconv.ParseUint(string(num), 10, 32)
				d.rec.ID, ok = uint32(n), err == nil
			}
		case "pos":
			bit = 4
			d.rec.Pos, i, ok = coordArray(b, i, d.coords[:rexptree.MaxDims])
		case "vel":
			bit = 8
			d.rec.Vel, i, ok = coordArray(b, i, d.coords[rexptree.MaxDims:])
		case "time":
			bit = 16
			d.rec.Time, i, ok = float(b, i)
		case "expires":
			bit = 32
			d.rec.Expires, i, ok = float(b, i)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		i = skipSpace(b, i)
		if i == len(b) {
			return false
		}
		switch b[i] {
		case '}':
			return skipSpace(b, i+1) == len(b)
		case ',':
			i = skipSpace(b, i+1)
		default:
			return false
		}
	}
}

// opName returns op as a string, without allocating for the valid ops.
func opName(op []byte) string {
	switch string(op) {
	case "":
		return ""
	case "update":
		return "update"
	case "delete":
		return "delete"
	}
	return string(op)
}

// skipSpace skips JSON whitespace from b[i].
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// plainString reads a JSON string at b[i] that holds printable ASCII
// only, no escapes, and returns its contents and the index past it.
func plainString(b []byte, i int) ([]byte, int, bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, i, false
		}
	}
	return nil, i, false
}

// number reads a literal of the JSON number grammar at b[i]:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func number(b []byte, i int) ([]byte, int, bool) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j == len(b):
		return nil, i, false
	case b[j] == '0':
		j++
	case '1' <= b[j] && b[j] <= '9':
		j = digits(b, j+1)
	default:
		return nil, i, false
	}
	if j < len(b) && b[j] == '.' {
		k := digits(b, j+1)
		if k == j+1 {
			return nil, i, false
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(b, j)
		if k == j {
			return nil, i, false
		}
		j = k
	}
	return b[i:j], j, true
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float reads a JSON number at b[i] as encoding/json reads it into a
// float64.
func float(b []byte, i int) (float64, int, bool) {
	num, j, ok := number(b, i)
	if !ok {
		return 0, i, false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	return f, j, err == nil
}

// coordArray reads a JSON array of at most len(dst) numbers at b[i]
// into dst and returns the filled prefix.
func coordArray(b []byte, i int, dst []float64) ([]float64, int, bool) {
	if i == len(b) || b[i] != '[' {
		return nil, i, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return dst[:0], i + 1, true
	}
	for n := 0; n < len(dst); n++ {
		f, j, ok := float(b, i)
		if !ok {
			return nil, i, false
		}
		dst[n] = f
		i = skipSpace(b, j)
		if i == len(b) {
			return nil, i, false
		}
		switch b[i] {
		case ']':
			return dst[: n+1 : n+1], i + 1, true
		case ',':
			i = skipSpace(b, i+1)
		default:
			return nil, i, false
		}
	}
	return nil, i, false // more coordinates than dst holds
}
