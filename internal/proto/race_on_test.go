//go:build race

package proto

// raceBuild: the race detector's build allocates differently, so byte
// budgets are checked only without it.
const raceBuild = true
