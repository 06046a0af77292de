//go:build race

package resilience

// raceBuild: the race detector's build allocates differently, so
// allocation counts are checked only without it.
const raceBuild = true
