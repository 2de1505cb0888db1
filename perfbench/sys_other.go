//go:build !linux

package main

// fsType is only known on Linux.
func fsType(string) string { return "unknown" }

// cpuSeconds is only measured on Linux.
func cpuSeconds() float64 { return 0 }
