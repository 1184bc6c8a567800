//go:build !race

package vfl

const raceBuild = false
