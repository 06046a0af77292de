//go:build !race

package wubbleu

const raceBuild = false
