package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// fdBudget is the most file descriptors any workload holds at once; the
// session counts are sized under it (direct: 2 per session, tier: 7).
const fdBudget = 4000

// checkFdLimit fails up front when the process may not hold fdBudget
// descriptors, instead of letting sessions fail at dial time.
func checkFdLimit() error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return fmt.Errorf("reading RLIMIT_NOFILE: %w", err)
	}
	if lim.Cur < fdBudget+96 {
		return fmt.Errorf("RLIMIT_NOFILE is %d; the network workloads hold up to %d descriptors — raise it with `ulimit -n 8192`", lim.Cur, fdBudget)
	}
	return nil
}

// usage is one getrusage reading of the whole process.
type usage struct {
	wall          time.Time
	user, sys     time.Duration
	volCS, invoCS int64
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

func readUsage() usage {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return usage{
		wall: time.Now(), user: tv(ru.Utime), sys: tv(ru.Stime),
		volCS: ru.Nvcsw, invoCS: ru.Nivcsw,
	}
}

// peakRSSMB is the high-water mark of the resident set, from VmHWM in
// /proc/self/status. getrusage's ru_maxrss would not do: it survives exec,
// so under `go run` it starts at the go command's own footprint.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(rest, &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

// cpu is the process CPU time, user plus system.
func (u usage) cpu() time.Duration { return u.user + u.sys }

// envHeader describes the host every number in a run was measured on.
func envHeader() map[string]any {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     kernel,
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// setProc records what the process spent between two readings; sessions
// is the number the allocation counts are divided by (0 on a workload
// without sessions, which leaves them 0).
func (r *result) setProc(u0, u1 usage, m0, m1 *runtime.MemStats, sessions float64) {
	wall := u1.wall.Sub(u0.wall).Seconds()
	user, sys := (u1.user - u0.user).Seconds(), (u1.sys - u0.sys).Seconds()
	r.set("proc.cpu_user_s", user)
	r.set("proc.cpu_sys_s", sys)
	if user+sys > 0 {
		r.set("proc.sys_frac", sys/(user+sys))
	}
	r.set("proc.cores_busy", (user+sys)/wall)
	if sessions > 0 {
		r.set("proc.mallocs_per_session", float64(m1.Mallocs-m0.Mallocs)/sessions)
		r.set("proc.alloc_kb_per_session", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/sessions)
	}
	r.set("proc.gc_cycles", float64(m1.NumGC-m0.NumGC))
	r.set("proc.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	r.set("proc.vol_ctxsw_per_s", float64(u1.volCS-u0.volCS)/wall)
	r.set("proc.invol_ctxsw_per_s", float64(u1.invoCS-u0.invoCS)/wall)
}
