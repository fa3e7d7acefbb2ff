package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// memWatch polls the Go heap while a build runs so the tool can report the
// peak allocation the build actually reached, not just where it ended.
type memWatch struct {
	base uint64 // HeapAlloc after a GC, before the watched work
	peak uint64
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
}

// watchMem garbage-collects, records the baseline heap, and starts
// sampling HeapAlloc every 10ms.
func watchMem() *memWatch {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := &memWatch{base: ms.HeapAlloc, peak: ms.HeapAlloc, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.sample()
			}
		}
	}()
	return w
}

func (w *memWatch) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mu.Lock()
	if ms.HeapAlloc > w.peak {
		w.peak = ms.HeapAlloc
	}
	w.mu.Unlock()
}

// Stop ends sampling and returns (baseline, peak) heap bytes.
func (w *memWatch) Stop() (base, peak uint64) {
	w.sample()
	close(w.stop)
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.base, w.peak
}

// vmHWM reads the process peak resident set (kernel-accounted, in bytes)
// from /proc/self/status; -1 where unavailable (non-Linux).
func vmHWM() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return -1
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return -1
		}
		return kb * 1024
	}
	return -1
}

// mib renders bytes as mebibytes for human output.
func mib(b uint64) float64 { return float64(b) / (1 << 20) }
