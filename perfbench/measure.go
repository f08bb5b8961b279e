package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// dist is a sample distribution. Timings are reported as the median plus
// the highest of p90/p99/p99.9 that has at least ten samples beyond it.
type dist []float64

func (d dist) sorted() dist {
	s := append(dist(nil), d...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile by linear interpolation (0 when empty).
func (d dist) quantile(q float64) float64 {
	s := d.sorted()
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func (d dist) median() float64 { return d.quantile(0.5) }

func (d dist) max() float64 {
	m := 0.0
	for _, v := range d {
		m = math.Max(m, v)
	}
	return m
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d {
		s += v
	}
	return s / float64(len(d))
}

// hiPercentile picks the highest reportable tail percentile.
func (d dist) hiPercentile() (float64, string) {
	n := float64(len(d))
	for _, p := range []struct {
		q     float64
		label string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}} {
		if n*(1-p.q) >= 10 {
			return d.quantile(p.q), p.label
		}
	}
	return 0, ""
}

func (d dist) metric(unit string) metric {
	hi, label := d.hiPercentile()
	return metric{Value: d.median(), Unit: unit, Hi: hi, HiLabel: label, Samples: len(d)}
}

// cpuNow returns the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
}

// memNow returns cumulative heap bytes allocated and the heap in use.
func memNow() (allocated, inuse uint64) {
	s := make([]metrics.Sample, len(memSamples))
	copy(s, memSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64() + s[2].Value.Uint64()
}

// span measures wall, CPU and allocation over one timed interval.
type span struct {
	wall0 time.Time
	cpu0  time.Duration
	allo0 uint64
}

func startSpan() span {
	a, _ := memNow()
	return span{wall0: time.Now(), cpu0: cpuNow(), allo0: a}
}

// end returns wall time, CPU time and bytes allocated since the start.
func (s span) end() (wall, cpu time.Duration, alloc uint64) {
	a, _ := memNow()
	return time.Since(s.wall0), cpuNow() - s.cpu0, a - s.allo0
}

// heapSampler records the highest heap-in-use seen while active.
type heapSampler struct {
	active atomic.Bool
	peak   atomic.Uint64
	stop   chan struct{}
	wg     sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if h.active.Load() {
					h.observe()
				}
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	_, inuse := memNow()
	for {
		p := h.peak.Load()
		if inuse <= p || h.peak.CompareAndSwap(p, inuse) {
			return
		}
	}
}

// setActive switches sampling on or off, taking a sample at each switch
// so short spans are still covered.
func (h *heapSampler) setActive(on bool) {
	h.observe()
	h.active.Store(on)
}

// close stops the sampler and returns the peak in MB.
func (h *heapSampler) close() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak.Load()) / (1 << 20)
}

// settle collects garbage left by input generation so each workload starts
// its timed phase from the same heap.
func settle() {
	runtime.GC()
	runtime.GC()
}

// benchSpec is the part of BENCHMARK.json the benchmark reads back: the
// metric names and units it must report.
type benchSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// e2eNames and layerNames are the metrics BENCHMARK.json declares, in
// order; layerUnits maps each per-layer metric to its declared unit.
var (
	e2eNames, layerNames []string
	layerUnits           = map[string]string{}
)

// loadSpec reads the metric names from BENCHMARK.json in the working
// directory, so the benchmark and its declaration cannot drift apart.
func loadSpec() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("read metric declarations: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	for _, m := range spec.EndToEnd {
		e2eNames = append(e2eNames, m.Name)
	}
	for _, m := range spec.PerLayer {
		layerNames = append(layerNames, m.Name)
		layerUnits[m.Name] = m.Unit
	}
	return nil
}

// sourceTreeHash identifies the engine sources when no git commit is
// available: a SHA-256 over every .go file and go.mod outside perfbench.
func sourceTreeHash() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && path != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", path)
		_, _ = io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
