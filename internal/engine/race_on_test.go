//go:build race

package engine

// raceEnabled reports that the race detector instruments this build. The
// differential walls then run only the pool sizes that add helper
// concurrency: instrumentation makes every pass several times slower, and
// the results are asserted by the uninstrumented run.
const raceEnabled = true
