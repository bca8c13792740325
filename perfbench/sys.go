package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS lowers the kernel's resident high-water mark to the current
// RSS (Linux clear_refs 5), so peakRSSMB reads the peak of what follows.
// Where that is unsupported the peak stays process-wide.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident high-water mark in MB (10^6 bytes): VmHWM
// from /proc, falling back to getrusage's process-lifetime maximum.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line[len("VmHWM:"):])
			if len(fields) > 0 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// runtimeCounters reads cumulative heap bytes allocated and GC cycles.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	metrics.Read(runtimeSamples)
	return runtimeSamples[0].Value.Uint64(), runtimeSamples[1].Value.Uint64()
}

// gcPauseSeconds is the cumulative stop-the-world pause time.
func gcPauseSeconds() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.PauseTotalNs) / 1e9
}

// stealSeconds is the machine's cumulative steal time — time its virtual
// CPUs were runnable but the hypervisor ran something else — from the steal
// column of /proc/stat (USER_HZ ticks). 0 where it is not reported.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// sample is the resource cost of one timed repetition.
type sample struct {
	wall, cpu, rssMB, allocMB float64
	steal                     float64 // machine steal time during the repetition
}

// maxStealShare is the steal, as a share of one CPU over a run, above which
// a timed run counts as disturbed.
const maxStealShare = 0.02

// undisturbed returns the indices of the runs to report: those that lost at
// most maxStealShare of a CPU to steal or, when that is fewer than half of
// them, the least-stolen half (at least 3, or all when there are fewer). On
// a shared virtual machine steal comes in bursts of seconds; a run that went
// through one is slower for reasons outside the program.
func undisturbed(samples []sample) []int {
	share := func(s sample) float64 { return s.steal / s.wall }
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return share(samples[idx[a]]) < share(samples[idx[b]]) })
	keep := max((len(samples)+1)/2, min(3, len(samples)))
	for keep < len(idx) && share(samples[idx[keep]]) <= maxStealShare {
		keep++
	}
	return idx[:keep]
}

// measure runs fn as one repetition: it starts from a collected heap with the
// memory returned to the OS and a reset RSS peak, so every repetition pays
// the same page faults and reports its own peak.
func measure(fn func() error) (sample, error) {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	a0, _ := runtimeCounters()
	s0 := stealSeconds()
	c0 := cpuSeconds()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	s1 := stealSeconds()
	a1, _ := runtimeCounters()
	return sample{
		wall:    wall,
		cpu:     c1 - c0,
		rssMB:   peakRSSMB(),
		allocMB: float64(a1-a0) / 1e6,
		steal:   s1 - s0,
	}, err
}
