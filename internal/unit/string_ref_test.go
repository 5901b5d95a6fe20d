package unit

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// stringReference is Time.String as it was written with fmt, kept as
// the oracle of the strconv version: the text a Time formats to is part
// of every assay document and so of every pinned cache key.
func stringReference(t Time) string {
	if t == math.MinInt64 {
		t++
	}
	neg := t < 0
	if neg {
		t = -t
	}
	whole := t / Second
	frac := t % Second
	var s string
	if frac == 0 {
		s = fmt.Sprintf("%d", whole)
	} else {
		s = strings.TrimRight(fmt.Sprintf("%d.%03d", whole, frac), "0")
	}
	if neg {
		s = "-" + s
	}
	return s + "s"
}

var stringCases = []Time{
	0, 1, -1, 10, 100, 200, 999, -999, 1000, -1000, 1010, 1100, 2500, -1500,
	37 * Second, 61*Second + 20, Forever, -Forever,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 1000,
}

func TestTimeStringMatchesReference(t *testing.T) {
	for _, c := range stringCases {
		want := stringReference(c)
		if got := c.String(); got != want {
			t.Errorf("Time(%d).String() = %q, reference %q", int64(c), got, want)
		}
		if got := string(c.Append([]byte("x"))); got != "x"+want {
			t.Errorf("Time(%d).Append = %q, want %q", int64(c), got, "x"+want)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		var b [24]byte
		_ = Time(math.MinInt64).Append(b[:0])
	}); n != 0 {
		t.Errorf("Append into a 24-byte buffer allocates %.0f times", n)
	}
}

func FuzzTimeStringMatchesReference(f *testing.F) {
	for _, c := range stringCases {
		f.Add(int64(c))
	}
	f.Fuzz(func(t *testing.T, v int64) {
		if got, want := Time(v).String(), stringReference(Time(v)); got != want {
			t.Fatalf("Time(%d).String() = %q, reference %q", v, got, want)
		}
	})
}
