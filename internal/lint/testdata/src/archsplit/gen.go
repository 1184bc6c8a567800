//go:build ignore

// A generator script in the package directory: never part of the package.
package main

func main() {}
