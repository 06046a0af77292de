//go:build race

package wire

// raceBuild: the race detector's sync.Pool drops some of what it is
// given, so pool reuse is checked only without it.
const raceBuild = true
