//go:build !race

package channel

const raceBuild = false
