//go:build race

package place

// raceEnabled reports whether the test binary runs under the race
// detector, which slows the reference quench about 20×.
const raceEnabled = true
