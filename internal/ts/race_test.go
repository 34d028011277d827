//go:build race

package ts

// raceEnabled reports that the test binary runs under the race detector,
// whose instrumentation allocates and so skews allocation counts.
const raceEnabled = true
