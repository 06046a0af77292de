//go:build !race

package resilience

// raceBuild: see race_on_test.go.
const raceBuild = false
