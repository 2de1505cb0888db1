package main

import (
	"strconv"
	"syscall"
)

// fsType names the filesystem holding dir; store latencies are fsync-bound,
// so a result is only comparable with others on the same kind.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
		0x6969:     "nfs",
		0x01021997: "9p",
		0x65735546: "fuse",
		0x2fc12fc1: "zfs",
		0x6a656a63: "virtiofs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
