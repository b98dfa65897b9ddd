package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// span is one call into a layer, recorded from the benchmark's own code.
// Spans of one job share its call number.
type span struct {
	name       string
	call       int
	start, end time.Time
}

// spans is the traced run's in-memory span log. A nil *spans records
// nothing, which is how untraced runs skip it.
type spans struct{ list []span }

// add records a span.
func (s *spans) add(name string, call int, start, end time.Time) {
	if s == nil {
		return
	}
	s.list = append(s.list, span{name: name, call: call, start: start, end: end})
}

// durations returns the lengths of the named spans.
func (s *spans) durations(name string) []time.Duration {
	var out []time.Duration
	for _, sp := range s.list {
		if sp.name == name {
			out = append(out, sp.end.Sub(sp.start))
		}
	}
	return out
}

// sample is one executed job.
type sample struct {
	job      int // index in the pass
	wall     time.Duration
	cpu      time.Duration // process CPU time, every thread
	simHours float64
	alloc    uint64 // heap bytes allocated during the job
	mallocs  uint64
	gcs      uint32
	heap     int64 // live heap the job holds at its end, its state still reachable
	verdict  verdict
}

// runner executes jobs one at a time on the calling goroutine and checks
// each output, including that every execution of a job gives the digest
// its first execution gave (the same-seed contract).
type runner struct {
	jobs      []job
	digests   map[int][32]byte
	calls     int
	attempted int
	failed    int
	errs      []string
	wall, cpu time.Duration // summed over every job run
}

func newRunner() *runner { return &runner{digests: map[int][32]byte{}} }

// fail records a failed job.
func (r *runner) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// run executes job i once. The heap is collected first so every job starts
// from the same state; after the job, a second collection with the job's
// state still reachable reads the live heap it added. Neither collection is
// timed.
func (r *runner) run(i int, sp *spans) (sample, bool) {
	j := r.jobs[i]
	r.calls++
	r.attempted++
	var before, after, settled runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start, cpuStart := time.Now(), cpuTime()
	verify, err := j.exec(sp, r.calls)
	wall, cpu := time.Since(start), cpuTime()-cpuStart
	runtime.ReadMemStats(&after)
	if err != nil {
		r.fail(err)
		return sample{}, false
	}
	sp.add("job", r.calls, start, start.Add(wall))
	r.wall += wall
	r.cpu += cpu
	runtime.GC()
	runtime.ReadMemStats(&settled)
	runtime.KeepAlive(verify)

	v, err := verify()
	if err != nil {
		r.fail(err)
		return sample{}, false
	}
	if d, ok := r.digests[i]; ok && d != v.digest {
		r.fail(fmt.Errorf("%s: output differs from the first execution of the same job", j.label))
		return sample{}, false
	}
	r.digests[i] = v.digest
	return sample{
		job:      i,
		wall:     wall,
		cpu:      cpu,
		simHours: j.simHours,
		alloc:    after.TotalAlloc - before.TotalAlloc,
		mallocs:  after.Mallocs - before.Mallocs,
		gcs:      after.NumGC - before.NumGC,
		heap:     int64(settled.HeapAlloc) - int64(before.HeapAlloc),
		verdict:  v,
	}, true
}

// setup is one fresh start of a workload: build, validate and expand the
// spec, then run the first job. It returns the CPU time spent until that
// first result.
func (r *runner) setup(w workload, seed uint64, sp *spans) (time.Duration, bool) {
	runtime.GC()
	start, cpuStart := time.Now(), cpuTime()
	jobs, err := w.plan(seed)
	planned, planCPU := time.Now(), cpuTime()-cpuStart
	if err == nil && len(jobs) == 0 {
		err = fmt.Errorf("%s: no jobs", w.name)
	}
	if err != nil {
		r.attempted++
		r.fail(err)
		return 0, false
	}
	sp.add("fleet.expand", 0, start, planned)
	r.jobs = jobs
	s, ok := r.run(0, nil)
	return planCPU + s.cpu, ok
}

// cpuTime returns the CPU time the process has used, user and system, on
// every thread. A kernel with paravirtual steal accounting leaves out the
// time the hypervisor gave the CPU to another guest, which wall time counts.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass runs every job once, in order, and returns the jobs that passed
// their checks.
func (r *runner) pass(sp *spans) []sample {
	var out []sample
	for i := range r.jobs {
		if s, ok := r.run(i, sp); ok {
			out = append(out, s)
		}
	}
	return out
}

// passes runs whole passes until at least d has elapsed and at least minJobs
// jobs have succeeded, or until hardStop has elapsed.
func (r *runner) passes(d time.Duration, minJobs int, hardStop time.Duration) []sample {
	var out []sample
	start := time.Now()
	for {
		got := r.pass(nil)
		out = append(out, got...)
		el := time.Since(start)
		if len(got) == 0 || el >= hardStop || el >= d && len(out) >= minJobs {
			return out
		}
	}
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs, or 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.999999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// throughput returns the simulated hours of the jobs per second of their
// summed CPU time.
func throughput(samples []sample) float64 {
	var hours, secs float64
	for _, s := range samples {
		hours += s.simHours
		secs += s.cpu.Seconds()
	}
	return ratio(hours, secs)
}

// host stamps a run with what makes its times comparable: the CPU count,
// GOMAXPROCS, the Go version, GOGC, and the share of CPU time the
// hypervisor stole while it ran.
type host struct {
	numCPU     int
	maxProcs   int
	goVersion  string
	gogc       string
	stealStart cpuTicks
}

// cpuTicks are the aggregate steal and total ticks of /proc/stat.
type cpuTicks struct{ steal, total uint64 }

func newHost() host {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return host{
		numCPU:     runtime.NumCPU(),
		maxProcs:   runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		gogc:       gogc,
		stealStart: readTicks(),
	}
}

// readTicks reads the aggregate CPU line of /proc/stat; zero when the file
// is not there (a host without procfs reports no steal).
func readTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var t cpuTicks
		for i, f := range fields[1:] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return cpuTicks{}
			}
			if i < 8 { // user..steal; guest time is already inside user
				t.total += v
			}
			if i == 7 {
				t.steal = v
			}
		}
		return t
	}
	return cpuTicks{}
}

// stamp renders the host line, with the steal share since newHost and the
// ratio of the jobs' wall time to their CPU time.
func (h host) stamp(wall, cpu time.Duration) string {
	end := readTicks()
	steal := 100 * ratio(float64(end.steal-h.stealStart.steal), float64(end.total-h.stealStart.total))
	return fmt.Sprintf("host numcpu=%d gomaxprocs=%d go=%s gogc=%s wall_per_cpu=%.3f steal_pct=%.2f",
		h.numCPU, h.maxProcs, h.goVersion, h.gogc, ratio(float64(wall), float64(cpu)), steal)
}
