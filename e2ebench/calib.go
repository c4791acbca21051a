package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark is run on is a small virtual machine whose
// cores speed up and slow down by a third for seconds or minutes at a time,
// whatever its guest is doing: the same commit measured 600 and 770
// searches a second half an hour apart. A wall-clock time read there says
// as much about the neighbours as about promipsd. So every timed phase is
// cut into slices, the machine's speed is measured between the slices with
// a fixed kernel of the harness's own, and each slice's times are multiplied
// by the machine's pace over it (rates divided): pace is the kernel's
// speed as a share of refSpeed, raised to paceExponent. A latency of 4 ms
// measured at a pace of 0.8 is reported as 3.2 ms; on a machine that runs
// the kernel at refSpeed the reported numbers are the measured ones.
//
// This is a control variate. The kernel is independent of promips (it
// lives here and nowhere else, so no change to promips can move it), so
// the correction cannot favour one commit over another; it only takes out
// the part of the run-to-run spread that the kernel's speed predicts.
// paceExponent is the measured elasticity: over 104 runs and 1,350 slices
// in quiet and noisy spells promipsd's throughput and latency moved by 0.5
// to 0.9 percent for each percent of the kernel's speed (an inner-product loop
// out of L2 suffers more from a busy sibling hyperthread than a server
// that also parses JSON, walks B+-trees and waits for the kernel). With 0.7
// the interquartile spread of ten runs fell from 15-32% to 4-12% (qps)
// and 11-18% (p50), and the medians of two sets of runs taken an hour
// apart, at kernel speeds 15% apart, agreed within 2% (p50) and 6% (qps)
// where the raw medians were 11% and 14% apart.
const (
	calibRows      = 64    // x dim float32 = 77 KB: the kernel's working set
	calibBursts    = 5     // per core; the median burst counts
	calibBurstRows = 16384 // about 4 ms of kernel

	// refSpeed is the kernel's speed, in rows per CPU-second, on the 2-core
	// sandbox in a quiet spell. Frozen: it only fixes the unit.
	refSpeed     = 4.0e6
	paceExponent = 0.7
)

// threadCPU returns the CPU time the calling thread has used. The kernel's
// speed is taken against it and not against the wall clock, so that a core
// shared for a moment with another thread (the harness's own garbage
// collector, a reply still being checked) does not read as a slow core.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calibrator measures the machine's pace with one kernel thread per core.
type calibrator struct {
	rows  [][]float32 // shared, read-only
	query []float32
	sink  float64 // keeps the kernel's products alive
	cpu   float64 // CPU seconds spent calibrating so far
}

func newCalibrator() *calibrator {
	c := &calibrator{rows: make([][]float32, calibRows), query: make([]float32, dim)}
	flat := make([]float32, calibRows*dim)
	for i := range flat {
		flat[i] = float32(mix(1, 0, uint64(i))>>40) / (1 << 24)
	}
	for i := range c.rows {
		c.rows[i] = flat[i*dim : (i+1)*dim]
	}
	copy(c.query, flat)
	return c
}

// pace runs the kernel on every core for calibBursts bursts and returns the
// machine's pace: the mean over the cores of each core's median burst
// speed, as a share of refSpeed, to the power paceExponent. The median
// drops a burst that an interrupt landed in.
func (c *calibrator) pace() float64 {
	cores := runtime.GOMAXPROCS(0)
	speed, cpu, products := make([]float64, cores), make([]float64, cores), make([]float64, cores)
	var wg sync.WaitGroup
	for g := 0; g < cores; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread() // threadCPU reads one thread's clock
			defer runtime.UnlockOSThread()
			var bursts []float64
			sum, began := 0.0, threadCPU()
			for b := 0; b < calibBursts; b++ {
				t0 := threadCPU()
				for i := 0; i < calibBurstRows; i++ {
					sum += dot(c.rows[i%calibRows], c.query)
				}
				bursts = append(bursts, calibBurstRows/(threadCPU()-t0).Seconds())
			}
			speed[g], cpu[g], products[g] = median(bursts), (threadCPU() - began).Seconds(), sum
		}()
	}
	wg.Wait()
	for g := range cpu {
		c.cpu += cpu[g]
		c.sink += products[g]
	}
	return math.Pow(mean(speed)/refSpeed, paceExponent)
}
