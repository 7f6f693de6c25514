package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envStamp records where a run was measured, so two result sets that
// disagree can be told apart by machine before anyone blames the code.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func stampEnv() envStamp {
	e := envStamp{
		Commit:     os.Getenv("BENCH_COMMIT"), // run.sh reads it from git; the build is not VCS-stamped
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
	}
	if e.Commit == "" {
		e.Commit = "unknown"
	}
	return e
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "" when the file or key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	return kb / 1024
}

// cpuSeconds is the user+system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCPUSeconds is the CPU time the garbage collector has used.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

var spinSink uint64

// calibSpinMS times a fixed single-threaded integer loop. It does the same
// work every call, so a slow reading means the host took the CPU away: the
// probe brackets each workload and flags disturbed runs. It is reported,
// never used to rescale a metric. A collection runs first, so the probe does
// not share the CPUs with the process's own background marking (and the
// timed passes start from a collected heap).
func calibSpinMS() float64 {
	runtime.GC()
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return float64(time.Since(start)) / 1e6
}
