//go:build race

package obs_test

// raceEnabled reports that the race detector is instrumenting this build.
const raceEnabled = true
