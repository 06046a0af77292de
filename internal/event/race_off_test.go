//go:build !race

package event

const raceBuild = false
