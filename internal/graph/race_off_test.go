//go:build !race

package graph

const raceBuild = false
