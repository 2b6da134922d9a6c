package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// memfdCreate is the memfd_create(2) system call number per architecture;
// the syscall package predates the call and does not name it.
var memfdCreate = map[string]uintptr{"amd64": 319, "arm64": 279, "riscv64": 279, "386": 356}

// walFile is the WAL's backing file. On Linux it is an anonymous
// memfd, which lives on the kernel's internal tmpfs: fsync still runs
// on every commit, exactly as on a disk, but device latency — which is
// not steady on a shared disk — is not part of what the benchmark
// measures. Nothing is written to any mounted filesystem. Where memfd is
// not available the benchmark refuses to run rather than put the WAL on a
// disk.
type walFile struct {
	path string
	fd   *os.File // the memfd holding the file alive
	fs   string
}

func newWALFile(name string) (*walFile, error) {
	nr, ok := memfdCreate[runtime.GOARCH]
	if !ok || runtime.GOOS != "linux" {
		return nil, fmt.Errorf("the WAL needs memfd_create(2), which %s/%s does not have", runtime.GOOS, runtime.GOARCH)
	}
	cname, err := syscall.BytePtrFromString("melody-" + name)
	if err != nil {
		return nil, err
	}
	const mfdCloexec = 1
	fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(cname)), mfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("memfd_create: %w", errno)
	}
	f := os.NewFile(fd, "memfd:"+name)
	return &walFile{path: fmt.Sprintf("/proc/self/fd/%d", fd), fd: f, fs: "memfd/" + fsType(int(fd))}, nil
}

// size is the file's current length in bytes.
func (w *walFile) size() (int64, error) {
	info, err := os.Stat(w.path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// Close releases the memfd and its memory.
func (w *walFile) Close() { w.fd.Close() }

// fsType names the filesystem holding an open file, from statfs(2).
func fsType(fd int) string {
	var st syscall.Statfs_t
	if err := syscall.Fstatfs(fd, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
