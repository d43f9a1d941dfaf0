package main

// The service workloads keep their job store on a RAM-backed file system.
// The store fsyncs every result file and every session record, and on a
// shared virtual disk one fsync takes anywhere from 0.15 ms to over 1 ms
// depending on the neighbours. On the disk those workloads spend most of
// each op waiting for the device: the process goes idle and wakes up
// several times per op, and the CPU time those transitions cost follows
// the disk's latency, not the program. On tmpfs the process stays busy and
// its CPU time per op repeats. The store's own work (encoding, writes,
// renames, lookups, the journal) still runs in full; the number of fsyncs
// it issues is reported per op as a per-layer metric, so a change that adds
// or removes one still shows.
//
// The tmpfs is mounted over the process temporary directory (which run.sh
// points inside the checkout) in a private user and mount namespace: the
// benchmark runs itself again as a child in that namespace and waits for
// it. Nothing is mounted outside the child, and the mount and everything
// on it disappear when the child exits. Where namespaces are not allowed
// the run stays on the disk and says so on stderr.

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"syscall"
)

// ramdiskEnv is set in the child: "1" when it should mount the tmpfs.
const ramdiskEnv = "PERFBENCH_RAMDISK"

// storeMedium names where the job store lives, for the stderr table.
var storeMedium = "disk"

// inRAMDisk runs the benchmark again in a child process with a private
// tmpfs over the temporary directory, and returns the child's exit code
// with ok set. In the child it mounts the tmpfs and returns ok unset, so
// the caller goes on to run the workload. If the child cannot be started
// in a new namespace it also returns ok unset, and the run stays on disk.
func inRAMDisk() (code int, ok bool) {
	if os.Getenv(ramdiskEnv) == "1" {
		if err := mountRAMDisk(os.TempDir()); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v; the job store stays on disk\n", err)
		} else {
			storeMedium = "tmpfs"
		}
		return 0, false
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v; the job store stays on disk\n", err)
		return 0, false
	}
	cmd := exec.Command(exe, os.Args[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.Env = append(os.Environ(), ramdiskEnv+"=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{
		Cloneflags:  syscall.CLONE_NEWUSER | syscall.CLONE_NEWNS,
		UidMappings: []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Getuid(), Size: 1}},
		GidMappings: []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Getgid(), Size: 1}},
		Pdeathsig:   syscall.SIGKILL,
	}
	if err := cmd.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: no private mount namespace (%v); the job store stays on disk\n", err)
		return 0, false
	}
	err = cmd.Wait()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, true
	case errors.As(err, &exit) && exit.ExitCode() >= 0:
		return exit.ExitCode(), true
	default:
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1, true
	}
}

// mountRAMDisk mounts a tmpfs over dir. Mounts are made private first, so
// nothing propagates out of the namespace.
func mountRAMDisk(dir string) error {
	if err := syscall.Mount("", "/", "", syscall.MS_REC|syscall.MS_PRIVATE, ""); err != nil {
		return fmt.Errorf("make mounts private: %w", err)
	}
	if err := syscall.Mount("perfbench", dir, "tmpfs", syscall.MS_NOSUID|syscall.MS_NODEV, "size=1g,mode=0700"); err != nil {
		return fmt.Errorf("mount tmpfs on %s: %w", dir, err)
	}
	return nil
}
