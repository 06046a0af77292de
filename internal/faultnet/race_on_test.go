//go:build race

package faultnet

// raceBuild: the race detector's build allocates differently (it does
// not fold a grown slice's temporary away), so byte budgets are checked
// only without it.
const raceBuild = true
