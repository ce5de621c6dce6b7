package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-noise correction. The benchmark shares a virtual machine with
// other tenants, and the hypervisor takes CPU time away from the guest
// ("steal") in bursts: a busy period stretched training steps and
// request latencies by a third on the 2-core host the baseline was
// measured on. The host meter samples the guest's cumulative steal and
// busy ticks (/proc/stat) fifty times a second, together with the
// resident set. Every host-clock duration the benchmark reports is
// corrected by the steal share of the CPU time the guest wanted around
// it:
//
//	corrected = wall × (1 − steal/busy)
//
// The correction depends only on the host's counters, never on the
// operation itself, so a slower program still reads slower. Without
// /proc/stat nothing is corrected.

const (
	sampleEvery = 20 * time.Millisecond
	// samplePad widens short intervals so the share rests on enough
	// 10 ms scheduler ticks.
	samplePad = 100 * time.Millisecond
)

type hostSample struct {
	t           time.Time
	steal, busy uint64 // busy: ticks neither idle nor iowait, steal included
	rssKiB      float64
}

// hostMeter samples the host until stopped.
type hostMeter struct {
	mu      sync.Mutex
	samples []hostSample
	stop    chan struct{}
	done    chan struct{}
}

func startHostMeter() *hostMeter {
	m := &hostMeter{stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				m.sample()
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

// Stop ends sampling and waits for the sampler to exit.
func (m *hostMeter) Stop() {
	close(m.stop)
	<-m.done
}

func (m *hostMeter) sample() {
	s := hostSample{t: time.Now(), rssKiB: procStatusKiB("VmRSS:")}
	s.steal, s.busy, _ = readCPUTicks() // zeros when unreadable: no correction
	m.mu.Lock()
	m.samples = append(m.samples, s)
	m.mu.Unlock()
}

// readCPUTicks returns the aggregate steal and busy ticks of the "cpu"
// line of /proc/stat.
func readCPUTicks() (steal, busy uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal
	for i, s := range fields[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i != 3 && i != 4 {
			busy += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, busy, true
}

// stealShare is the steal share of the busy ticks over [t0, t1]
// widened by samplePad on both sides.
func (m *hostMeter) stealShare(t0, t1 time.Time) float64 {
	t0, t1 = t0.Add(-samplePad), t1.Add(samplePad)
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.samples)
	i0 := max(sort.Search(n, func(i int) bool { return m.samples[i].t.After(t0) })-1, 0)
	i1 := min(sort.Search(n, func(i int) bool { return !m.samples[i].t.Before(t1) }), n-1)
	if i1 <= i0 {
		return 0
	}
	first, last := m.samples[i0], m.samples[i1]
	if last.busy <= first.busy {
		return 0
	}
	return float64(last.steal-first.steal) / float64(last.busy-first.busy)
}

// corrected is the steal-corrected length of [t0, t1].
func (m *hostMeter) corrected(t0, t1 time.Time) time.Duration {
	return time.Duration(float64(t1.Sub(t0)) * (1 - m.stealShare(t0, t1)))
}

// since is the steal-corrected time from t0 to now, in seconds.
func (m *hostMeter) since(t0 time.Time) float64 { return m.corrected(t0, time.Now()).Seconds() }

// peakRSSMiB is the 90th percentile of the resident set sampled in
// [t0, t1]. Unlike the process's lifetime high-water mark, a median of
// these over a run's phases does not hinge on one garbage-collection
// cycle.
func (m *hostMeter) peakRSSMiB(t0, t1 time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var rss []float64
	for _, s := range m.samples {
		if !s.t.Before(t0) && !s.t.After(t1) {
			rss = append(rss, s.rssKiB)
		}
	}
	return quantile(rss, 0.9) / 1024
}

// threadCPU is the CPU time the calling OS thread has used; callers
// lock their goroutine to its thread. The guest kernel does not charge
// steal to a thread, so for single-threaded work it is the host clock
// without the hypervisor's interruptions, which the steal correction
// only estimates.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
