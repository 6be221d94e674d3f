package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Host identifies the machine and build a result was measured on. Results
// from different hosts are not comparable.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostRecord(commit string) Host {
	return Host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// RunRecord is what regenerates a workload's inputs: its modes, dataset
// preset and scale, cluster, and seed.
type RunRecord struct {
	Name      string   `json:"name"`
	Preset    string   `json:"preset"`
	Scale     float64  `json:"scale"`
	Cluster   string   `json:"cluster"`
	Executors int      `json:"executors"`
	Modes     []string `json:"modes"`
	Seed      int64    `json:"seed"`
}

// rssMB returns the process's resident set in MB, from /proc/self/statm.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / mib
}

// rssSampler records the peak resident set while it runs, sampling every
// 10 ms.
type rssSampler struct {
	stop chan struct{}
	peak chan float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		peak := rssMB()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.peak <- math.Max(peak, rssMB())
				return
			case <-t.C:
				peak = math.Max(peak, rssMB())
			}
		}
	}()
	return s
}

// Stop ends the sampling and returns the peak in MB.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	return <-s.peak
}
