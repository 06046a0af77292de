//go:build !race

package faultnet

const raceBuild = false
