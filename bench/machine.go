package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// machineRecord is written into every output file and the committed
// baseline, so a number can be read against the box that produced it.
type machineRecord struct {
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	RspqdGOMAXPROCS int     `json:"rspqd_gomaxprocs"`
	CPUModel        string  `json:"cpu_model"`
	GoVersion       string  `json:"go_version"`
	GitRev          string  `json:"git_rev"`
	Seed            int64   `json:"seed"`
	Load1           float64 `json:"load1_before"`
	// OneCPU is the CPU a serving workload confined itself and its
	// rspqd child to; -1 when the workload ran unconfined.
	OneCPU int `json:"one_cpu"`
}

func machine(root string, seed int64) machineRecord {
	return machineRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		// The child is started with GOMAXPROCS set to this value
		// (startServer), so it is known without asking the child.
		RspqdGOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:        cpuModel(),
		GoVersion:       runtime.Version(),
		GitRev:          gitRev(root),
		Seed:            seed,
		Load1:           load1(),
		OneCPU:          -1,
	}
}

// cpuMask is a sched_setaffinity mask of up to 1024 CPUs.
type cpuMask [16]uint64

func schedAffinity(call uintptr, tid int, m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(call, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return e
	}
	return nil
}

// setAffinityAll gives every thread of this process the mask. Threads
// started later inherit it from the thread that starts them.
func setAffinityAll(m *cpuMask) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may exit between the listing and the call.
		if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, tid, m); err != nil && err != syscall.ESRCH {
			return err
		}
	}
	return nil
}

// confineToOneCPU pins this process — and so every child it starts
// until restore is called — to the highest CPU it is allowed on and
// sets GOMAXPROCS to 1. A serving workload runs the load generator and
// rspqd side by side; on two vCPUs every request then crosses CPUs
// twice, and on this VM that costs more than it buys and varies from
// minute to minute. Alternating runs of one binary, same seed: serve-hot
// on two CPUs 12.0k, 12.4k, 11.7k reads/s (rounds 9.7k–13.9k) at 0.080
// CPU-seconds of rspqd per 1000 ops; on one CPU 15.3k, 15.2k, 15.5k
// (rounds 12.9k–16.3k) at 0.048. On one CPU a request costs the CPU
// time both sides spend on it and nothing else.
func confineToOneCPU() (cpu int, restore func(), err error) {
	var old, one cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, 0, &old); err != nil {
		return -1, nil, fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpu = -1
	for i := len(old) - 1; i >= 0 && cpu < 0; i-- {
		if old[i] != 0 {
			cpu = 64*i + 63 - bits.LeadingZeros64(old[i])
		}
	}
	if cpu < 0 {
		return -1, nil, fmt.Errorf("sched_getaffinity: empty mask")
	}
	one[cpu/64] = 1 << (cpu % 64)
	if err := setAffinityAll(&one); err != nil {
		setAffinityAll(&old)
		return -1, nil, fmt.Errorf("sched_setaffinity: %w", err)
	}
	procs := runtime.GOMAXPROCS(1)
	return cpu, func() {
		runtime.GOMAXPROCS(procs)
		setAffinityAll(&old)
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev is "unknown" in a checkout that is not a git repository (the
// driver's is not).
func gitRev(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f, _, _ := strings.Cut(string(b), " ")
	v, _ := strconv.ParseFloat(f, 64)
	return v
}

// selfCPU is the user+system CPU time this process has consumed.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the CPU time another process has consumed: the on-CPU
// nanoseconds of its threads from /proc/<pid>/task/*/schedstat, or,
// where the kernel keeps no schedstat, user+system time in 10 ms ticks
// from /proc/<pid>/stat (fields 14 and 15, counted after the
// parenthesised command name).
func procCPU(pid int) time.Duration {
	dir := "/proc/" + strconv.Itoa(pid)
	if tasks, err := os.ReadDir(dir + "/task"); err == nil {
		var ns int64
		for _, t := range tasks {
			b, err := os.ReadFile(dir + "/task/" + t.Name() + "/schedstat")
			if err != nil {
				continue // the thread ended between the listing and the read
			}
			f, _, _ := strings.Cut(string(b), " ")
			v, _ := strconv.ParseInt(f, 10, 64)
			ns += v
		}
		if ns > 0 {
			return time.Duration(ns)
		}
	}
	b, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return 0
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	// USER_HZ is 100 on every Linux port Go supports.
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// resetPeakRSS restarts this process's VmHWM mark at its current RSS.
// Where the kernel does not offer that, the mark keeps its history.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is VmHWM of a process in MiB.
func peakRSSMB(pid int) float64 {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
