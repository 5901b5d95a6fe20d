// Package jsonw appends JSON without reflection, in exactly the bytes
// encoding/json's Encoder writes with SetIndent("", "  "): two-space
// indentation, ": " after each key, encoding/json's float format and its
// HTML-safe string escaping. The canonical solution document (solio),
// the assay format (assay) and the chip-session replies (session, server)
// are written through it; encoding/json stays their decoder, and their
// tests keep the reflection-based encoder as the byte-for-byte oracle.
package jsonw

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Writer appends one indented JSON value to a byte slice. Open a
// container with Object or Array (or List) and close it with EndObject or
// EndArray; inside an object, every value follows a Key. The zero Writer
// appends to a nil slice.
//
// A NaN or infinite float cannot be written: the first one is kept as
// Err, and the caller discards the bytes, as encoding/json's
// UnsupportedValueError leaves its output unwritten.
type Writer struct {
	buf      []byte
	depth    int
	empty    bool // the innermost open container holds no element yet
	afterKey bool // a key was just written; its value follows on its line
	err      error
}

// NewWriter returns a Writer appending to dst.
func NewWriter(dst []byte) Writer { return Writer{buf: dst} }

// Bytes returns dst with everything written so far appended.
func (w *Writer) Bytes() []byte { return w.buf }

// Resume returns a Writer in w's state, open containers and separators
// included, that appends to dst instead: what w wrote went elsewhere
// (into a hash, say), and what follows it goes to dst. Resumed with a
// nil dst, the copy keeps the state without holding w's bytes.
func (w *Writer) Resume(dst []byte) Writer {
	r := *w
	r.buf = dst
	return r
}

// Err returns the first unsupported value written, if any.
func (w *Writer) Err() error { return w.err }

// Object opens an object.
func (w *Writer) Object() { w.open('{') }

// EndObject closes the innermost open object.
func (w *Writer) EndObject() { w.close('}') }

// Array opens an array.
func (w *Writer) Array() { w.open('[') }

// EndArray closes the innermost open array.
func (w *Writer) EndArray() { w.close(']') }

// List writes the value of a slice of n elements that was built by
// append, so is nil until its first element: null when n is 0, and
// otherwise an opened array, which the caller fills and closes. It
// reports whether the array was opened.
func (w *Writer) List(n int) bool {
	if n == 0 {
		w.value()
		w.buf = append(w.buf, "null"...)
		return false
	}
	w.Array()
	return true
}

// Key starts an object member; its value is the next one written.
func (w *Writer) Key(k string) {
	w.element()
	w.buf = appendString(w.buf, k)
	w.buf = append(w.buf, ':', ' ')
	w.afterKey = true
}

// Bool writes true or false.
func (w *Writer) Bool(b bool) {
	w.value()
	w.buf = strconv.AppendBool(w.buf, b)
}

// Int writes an integer.
func (w *Writer) Int(v int64) {
	w.value()
	w.buf = strconv.AppendInt(w.buf, v, 10)
}

// Uint writes an unsigned integer.
func (w *Writer) Uint(v uint64) {
	w.value()
	w.buf = strconv.AppendUint(w.buf, v, 10)
}

// String writes a string with encoding/json's HTML-safe escaping.
func (w *Writer) String(s string) {
	w.value()
	w.buf = appendString(w.buf, s)
}

// StringBytes writes the text in b as String writes a string, for a
// caller that appended the text into a buffer of its own instead of
// building a string.
func (w *Writer) StringBytes(b []byte) {
	w.value()
	w.buf = appendString(w.buf, b)
}

// Float writes a float64 as encoding/json does: like ES6's number to
// string conversion, with 'e' notation only below 1e-6 or from 1e21 in
// magnitude and the exponent unpadded ("1e-7", not "1e-07").
func (w *Writer) Float(f float64) {
	w.value()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = fmt.Errorf("jsonw: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, f, format, -1, 64)
	if n := len(w.buf); format == 'e' && w.buf[n-4] == 'e' && w.buf[n-3] == '-' && w.buf[n-2] == '0' {
		w.buf[n-2] = w.buf[n-1]
		w.buf = w.buf[:n-1]
	}
}

// value starts a value: after a Key it continues the key's line, and
// anywhere else it is a new element.
func (w *Writer) value() {
	if w.afterKey {
		w.afterKey = false
		return
	}
	w.element()
}

// element separates a new array element or object member from the
// previous one and puts it on its own indented line. The top-level value
// starts where dst ends.
func (w *Writer) element() {
	if w.depth == 0 {
		return
	}
	if w.empty {
		w.empty = false
		w.newline(1)
		return
	}
	w.newline(0)
}

func (w *Writer) open(c byte) {
	w.value()
	w.buf = append(w.buf, c)
	w.depth++
	w.empty = true
}

// close ends the innermost container; an empty one stays on its opening
// line, as "{}" or "[]".
func (w *Writer) close(c byte) {
	w.depth--
	if w.empty {
		w.empty = false
	} else {
		w.newline(1)
	}
	w.buf = append(w.buf, c)
}

// newline starts a line indented to the current depth, after a comma
// when from is 0 and without one when from is 1.
func (w *Writer) newline(from int) {
	if n := 2 + 2*w.depth; n <= len(sepIndent) {
		w.buf = append(w.buf, sepIndent[from:n]...)
		return
	}
	w.buf = append(w.buf, sepIndent[from:2]...)
	for i := 0; i < w.depth; i++ {
		w.buf = append(w.buf, ' ', ' ')
	}
}

// sepIndent is an element separator and 16 levels of indentation, more
// than a solution document nests.
const sepIndent = ",\n                                "

// appendString appends s quoted. A string of printable ASCII that needs
// no escape is copied as is; any other is escaped by encoding/json
// itself, so the escaping stays the standard library's.
func appendString[S string | []byte](dst []byte, s S) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			b, _ := json.Marshal(string(s)) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// plain marks the bytes encoding/json copies into a string unescaped
// and appendString copies itself: printable ASCII other than the quote,
// the backslash and the HTML-sensitive <, > and &.
var plain = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()
