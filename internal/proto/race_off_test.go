//go:build !race

package proto

const raceBuild = false
