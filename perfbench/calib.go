package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machines the benchmark runs on are shared, and their speed drifts:
// on the 2-vCPU development VM the same route took 1.0x to 2.3x its calm
// time within minutes, with under 3% steal, so process CPU time tracked
// wall time through the drift. Longer runs do not average that out,
// because the slow periods outlast a run, and the speed also wanders by
// about 15% from one second to the next. So every time the benchmark
// reports end to end is calibrated: while the workload runs, a
// calibrator times a fixed reference computation that does not use the
// repository's code every refEvery, and each measured time is scaled by
// refNominal ÷ the reference's median time over the same interval. A
// calibrated time reads as seconds on a host where the reference takes
// refNominal; it moves with the program's own speed and mostly not with
// the host's. The uncalibrated times are printed above the result line.
//
// The reference is timed in its thread's CPU time, on a thread of its
// own, so the time it waits while the workload's goroutines hold both
// CPUs does not count: its samples follow the host's speed, not how busy
// the workload keeps the machine. The thread moves to the next of the
// process's CPUs before every sample. The drift of a VM's CPUs is only
// loosely related from second to second, and a thread left alone would
// keep to the CPU the workload's main thread leaves free.

// refNominal sets the scale of calibrated times: it is about one
// reference sample's time on the development VM in a calm period.
const refNominal = 5 * time.Millisecond

// refEvery is the interval between reference samples.
const refEvery = 300 * time.Millisecond

// refMin is the fewest samples a calibration factor is taken from; a
// window holding fewer borrows the samples nearest to it.
const refMin = 5

// refSide is the side of the reference's grid graph.
const refSide = 190

// refGraph is the reference computation: a Dijkstra search with a binary
// heap and a visited map over a fixed pseudo-random octilinear grid
// graph — the kind of work the router's stage-4 A* does. Its buffers and
// map are allocated once and reused, so a sample allocates nothing: it
// neither adds to the workload's alloc_mb nor triggers or assists the
// garbage collector on the workload's behalf. The map is there on
// purpose: scattered memory access is what drifts most, and the map's
// scattered reads and writes make the reference drift as the router does.
type refGraph struct {
	cost []int32
	dist []int64
	seen map[int32]bool
	heap []refItem
}

type refItem struct {
	node int32
	dist int64
}

func newRefGraph() *refGraph {
	const n = refSide * refSide
	g := &refGraph{cost: make([]int32, n), dist: make([]int64, n), seen: make(map[int32]bool, n),
		heap: make([]refItem, 0, 8*n)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range g.cost {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		g.cost[i] = int32(1 + x%16)
	}
	return g
}

// search runs one search from a fixed source over the whole graph and
// returns the sum of the distances, which is fixed.
func (g *refGraph) search() int64 {
	for i := range g.dist {
		g.dist[i] = -1
	}
	clear(g.seen)
	src := int32(refSide/3*refSide + refSide/4)
	g.dist[src] = 0
	g.heap = append(g.heap[:0], refItem{node: src})
	steps := [8][3]int{{-1, 0, 10}, {1, 0, 10}, {0, -1, 10}, {0, 1, 10}, {-1, -1, 14}, {-1, 1, 14}, {1, -1, 14}, {1, 1, 14}}
	for len(g.heap) > 0 {
		it := g.pop()
		if g.seen[it.node] {
			continue
		}
		g.seen[it.node] = true
		r, c := int(it.node)/refSide, int(it.node)%refSide
		for _, d := range steps {
			rr, cc := r+d[0], c+d[1]
			if rr < 0 || cc < 0 || rr >= refSide || cc >= refSide {
				continue
			}
			v := int32(rr*refSide + cc)
			nd := it.dist + int64(d[2])*int64(g.cost[v])
			if g.dist[v] < 0 || nd < g.dist[v] {
				g.dist[v] = nd
				g.push(refItem{node: v, dist: nd})
			}
		}
	}
	var sum int64
	for _, d := range g.dist {
		sum += d
	}
	return sum
}

func (g *refGraph) push(it refItem) {
	h := append(g.heap, it)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].dist <= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	g.heap = h
}

func (g *refGraph) pop() refItem {
	h := g.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < len(h) && h[l].dist < h[m].dist {
			m = l
		}
		if r := l + 1; r < len(h) && h[r].dist < h[m].dist {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	g.heap = h
	return top
}

// threadCPU returns the CPU time the calling thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() []int {
	var mask [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// setCPU pins the calling thread to one CPU. A thread it fails on keeps
// its affinity; its samples are still valid, only less spread.
func setCPU(cpu int) {
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
}

type refSample struct {
	at  time.Time // when the sample ended
	cpu float64   // seconds of thread CPU time it took
}

// calibrator samples the reference computation every refEvery on a
// thread of its own until stop is called.
type calibrator struct {
	mu      sync.Mutex
	samples []refSample
	quit    chan struct{}
	done    chan struct{}
}

// startCalibrator takes a first sample and starts sampling.
func startCalibrator() *calibrator {
	c := &calibrator{quit: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(c.done)
		// The thread's CPU affinity changes below, so it must never run
		// another goroutine: it stays locked and ends with this one.
		runtime.LockOSThread()
		cpus := allowedCPUs()
		g := newRefGraph()
		want := g.search()
		n := 0
		sample := func() {
			if len(cpus) > 1 {
				setCPU(cpus[n%len(cpus)])
				n++
			}
			c0 := threadCPU()
			if g.search() != want {
				panic("perfbench: the reference computation is not deterministic")
			}
			s := refSample{at: time.Now(), cpu: (threadCPU() - c0).Seconds()}
			c.mu.Lock()
			c.samples = append(c.samples, s)
			c.mu.Unlock()
		}
		sample()
		close(ready)
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.quit:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	<-ready
	return c
}

// stop ends the sampling and waits for the sampler to exit.
func (c *calibrator) stop() {
	close(c.quit)
	<-c.done
}

// scale returns refNominal ÷ the median sample taken in [from, to] — the
// factor that turns a time measured over that interval into a calibrated
// time. A window with fewer than refMin samples uses the refMin samples
// that ended nearest to its middle.
func (c *calibrator) scale(from, to time.Time) float64 {
	c.mu.Lock()
	all := append([]refSample(nil), c.samples...)
	c.mu.Unlock()
	var in []float64
	for _, s := range all {
		if !s.at.Before(from) && !s.at.After(to) {
			in = append(in, s.cpu)
		}
	}
	if len(in) < refMin {
		mid := from.Add(to.Sub(from) / 2)
		off := func(s refSample) time.Duration { return max(s.at.Sub(mid), mid.Sub(s.at)) }
		sort.Slice(all, func(i, j int) bool { return off(all[i]) < off(all[j]) })
		in = in[:0]
		for _, s := range all[:min(refMin, len(all))] {
			in = append(in, s.cpu)
		}
	}
	return refNominal.Seconds() / median(in)
}
