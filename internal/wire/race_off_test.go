//go:build !race

package wire

const raceBuild = false
