// Package unit provides the fixed-point physical quantities shared by the
// synthesis pipeline: time in milliseconds, length in micrometres, and
// diffusion coefficients in cm²/s.
//
// The paper reports all times in seconds (often fractional, e.g. 0.2 s wash
// for a lysis buffer) and all lengths in millimetres. Using integer
// milliseconds and micrometres keeps interval arithmetic exact and makes
// every run byte-for-byte reproducible, while converting losslessly to and
// from the units used in the paper.
package unit

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Time is a duration or an instant on the bioassay clock, in milliseconds.
// The zero Time is the start of the assay.
type Time int64

// Common time constants.
const (
	Millisecond Time = 1
	Second      Time = 1000
	Minute      Time = 60 * Second
)

// Forever is a sentinel instant later than any reachable schedule point.
// It is used as the open end of half-open occupancy intervals.
const Forever Time = math.MaxInt64 / 4

// Seconds constructs a Time from a (possibly fractional) number of seconds,
// rounding to the nearest millisecond and saturating at ±Forever so that
// absurd inputs cannot overflow the fixed-point representation.
func Seconds(s float64) Time {
	ms := math.Round(s * 1000)
	switch {
	case math.IsNaN(ms):
		return 0
	case ms >= float64(Forever):
		return Forever
	case ms <= -float64(Forever):
		return -Forever
	}
	return Time(ms)
}

// Sec reports t as floating-point seconds.
func (t Time) Sec() float64 { return float64(t) / 1000 }

// String formats the time as seconds with millisecond precision, trimming
// trailing zeros: 2 s prints as "2s", 200 ms as "0.2s".
func (t Time) String() string {
	var b [24]byte // the longest text, math.MinInt64's, is 22 bytes
	return string(t.Append(b[:0]))
}

// Append appends the text String returns to dst.
func (t Time) Append(dst []byte) []byte {
	if t == math.MinInt64 {
		// -t would overflow; this value is unreachable through the
		// constructors but Time is an open integer type.
		t++
	}
	if t < 0 {
		dst = append(dst, '-')
		t = -t
	}
	dst = strconv.AppendInt(dst, int64(t/Second), 10)
	if frac := t % Second; frac != 0 {
		dst = append(dst, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
		for dst[len(dst)-1] == '0' {
			dst = dst[:len(dst)-1]
		}
	}
	return append(dst, 's')
}

// ParseTime parses strings of the form "2s", "0.2s", "1500ms" or a bare
// number of seconds such as "2.5".
func ParseTime(s string) (Time, error) {
	orig := s
	s = strings.TrimSpace(s)
	switch {
	case strings.HasSuffix(s, "ms"):
		n, err := strconv.ParseInt(strings.TrimSuffix(s, "ms"), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("unit: invalid time %q: %w", orig, err)
		}
		return Time(n), nil
	case strings.HasSuffix(s, "s"):
		s = strings.TrimSuffix(s, "s")
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("unit: invalid time %q: %w", orig, err)
	}
	return Seconds(f), nil
}

// MaxTime returns the later of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MinTime returns the earlier of a and b.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Length is a physical distance in micrometres.
type Length int64

// Common length constants.
const (
	Micrometre Length = 1
	Millimetre Length = 1000
	Centimetre Length = 10 * Millimetre
)

// Millimetres constructs a Length from a fractional number of millimetres.
func Millimetres(mm float64) Length {
	return Length(math.Round(mm * 1000))
}

// MM reports the length as floating-point millimetres.
func (l Length) MM() float64 { return float64(l) / 1000 }

// String formats the length in millimetres, e.g. "420mm" or "10.5mm".
func (l Length) String() string {
	neg := l < 0
	if neg {
		l = -l
	}
	whole := l / Millimetre
	frac := l % Millimetre
	var s string
	if frac == 0 {
		s = fmt.Sprintf("%d", whole)
	} else {
		s = strings.TrimRight(fmt.Sprintf("%d.%03d", whole, frac), "0")
	}
	if neg {
		s = "-" + s
	}
	return s + "mm"
}

// Diffusion is a diffusion coefficient in cm²/s. Lower values correspond to
// larger contaminants and therefore to longer wash times (Section II-B of
// the paper).
type Diffusion float64

// Reference diffusion coefficients from the paper's Section II-B.
const (
	// DiffusionSmallMolecule is typical for small molecules such as a
	// lysis buffer (wash time about 0.2 s).
	DiffusionSmallMolecule Diffusion = 1e-5
	// DiffusionLargeVirus is typical for cells such as tobacco mosaic
	// virus (wash time about 6 s).
	DiffusionLargeVirus Diffusion = 5e-8
)

// Valid reports whether d is a physically meaningful coefficient.
func (d Diffusion) Valid() bool {
	return d > 0 && !math.IsInf(float64(d), 0) && !math.IsNaN(float64(d))
}

// String formats the coefficient in scientific notation, e.g. "1.0e-05 cm²/s".
func (d Diffusion) String() string {
	return fmt.Sprintf("%.1e cm²/s", float64(d))
}
