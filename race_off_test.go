//go:build !race

package pia

const raceBuild = false
