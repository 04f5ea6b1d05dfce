package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark was tuned on is a shared 2-vCPU VM whose
// hypervisor at times steals a tenth or more of the CPU; a window in
// which it does reads up to twice as slow, whatever the program does.
// Every phase therefore samples the steal counter of /proc/stat at its
// window boundaries, and the latency and rate metrics are medians over
// the windows that lost the least CPU to it.

// cpuTimes reads the host-wide steal and total CPU time, in clock
// ticks; ok is false where /proc/stat is unavailable.
func cpuTimes() (steal, total int64, ok bool) {
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
	for i, s := range fields[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter records the share of CPU time stolen in each window of a
// phase that starts when it is created.
type stealMeter struct {
	done  chan struct{}
	share []float64
}

func meterSteal(span time.Duration) *stealMeter {
	m := &stealMeter{done: make(chan struct{})}
	t0 := time.Now()
	go func() {
		defer close(m.done)
		s0, t0ticks, ok := cpuTimes()
		if !ok {
			return
		}
		share := make([]float64, 0, windows)
		for k := 1; k <= windows; k++ {
			time.Sleep(time.Until(t0.Add(span * time.Duration(k) / windows)))
			s, t, ok := cpuTimes()
			if !ok {
				return
			}
			share = append(share, ratio(float64(s-s0), float64(t-t0ticks)))
			s0, t0ticks = s, t
		}
		m.share = share
	}()
	return m
}

// quiet waits for the phase's last window boundary and marks the half
// of the windows with the least steal; nil (every window) when steal
// could not be read.
func (m *stealMeter) quiet() ([]bool, []float64) {
	<-m.done
	if m.share == nil {
		return nil, nil
	}
	order := make([]int, windows)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return m.share[order[a]] < m.share[order[b]] })
	q := make([]bool, windows)
	for _, i := range order[:windows/2] {
		q[i] = true
	}
	return q, m.share
}
