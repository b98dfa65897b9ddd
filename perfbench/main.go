// Command perfbench is the repository's benchmark. It runs one named
// workload through the program's public entry points on a single
// goroutine, checks every job's output, and prints its metrics: the
// end-to-end set by default, the per-layer set with --trace 1. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
//
// Run it from the repository root through perfbench/run.sh, which builds it
// from the checkout's sources:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 30 --trace 0
//
// perfbench/README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// main runs the benchmark on one processor. The jobs run on one goroutine,
// so a second processor would only host the garbage collector's idle
// workers, whose CPU time rises and falls with what the host leaves idle.
// On one processor the collector's work is the job's own.
func main() {
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
}

// A run sets up afresh at least minSetups times and for at least setupTime,
// so that the median behind setup_s rests on many samples where set-up is
// short.
const (
	minSetups = 5
	setupTime = 2 * time.Second
)

// minJobs is the fewest timed jobs of an untraced run, so that
// job_cpu_ms_p90 has at least ten samples above it.
const minJobs = 100

// maxTimed caps the timed part of a run, whatever the job count, so a run on
// a very slow host still ends within three minutes.
const maxTimed = 120 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper-sweep, tenants-shared or zoo-observed")
	fs.Uint64Var(&o.seed, "seed", 1, "benchmark seed; every job seed and spec derives from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to measure, in seconds (whole passes)")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(o.workload)
	if !ok || fs.NArg() > 0 || o.trace < 0 || o.trace > 1 || o.seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (paper-sweep, tenants-shared or zoo-observed), "+
			"--trace 0 or 1 and --seconds >= 0\n")
		return 2
	}

	h := newHost()
	r := newRunner()
	var sp *spans
	if o.trace == 1 {
		sp = &spans{}
	}
	var setups []float64
	for start := time.Now(); len(setups) < minSetups || time.Since(start) < setupTime; {
		d, ok := r.setup(w, o.seed, sp)
		if !ok {
			break
		}
		setups = append(setups, d.Seconds())
	}
	if r.jobs == nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, r.errs)
		return 1
	}

	var ms []metric
	if o.trace == 0 {
		samples := r.passes(seconds(o.seconds), minJobs, maxTimed)
		ms = endToEnd(setups, samples)
	} else {
		plain, traced, layers, total, err := tracedPasses(r, sp, seconds(o.seconds))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		ms = perLayer(r, plain, traced, sp, layers, total)
	}

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d jobs_per_pass=%d\n",
		w.name, o.seed, o.seconds, o.trace, len(r.jobs))
	fmt.Fprintln(stdout, h.stamp(r.wall, r.cpu))
	writeTable(stdout, ms)
	fmt.Fprintf(stdout, "checks attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", e)
	}
	line, err := resultLine(r, ms)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// tracedPasses alternates untraced and traced passes until d has elapsed,
// at least one of each, so that both see the same host. Traced passes record
// spans and are CPU-profiled; the profile's samples are charged per layer.
func tracedPasses(r *runner, sp *spans, d time.Duration) (plain, traced []sample, layers map[string]int64, total int64, err error) {
	layers = map[string]int64{}
	for start := time.Now(); len(traced) == 0 || time.Since(start) < d && time.Since(start) < maxTimed; {
		plain = append(plain, r.pass(nil)...)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, nil, 0, err
		}
		got := r.pass(sp)
		pprof.StopCPUProfile()
		if len(got) == 0 {
			return nil, nil, nil, 0, fmt.Errorf("every traced job failed: %v", r.errs)
		}
		traced = append(traced, got...)
		folded, n, err := foldProfile(prof.Bytes())
		if err != nil {
			return nil, nil, nil, 0, err
		}
		for _, l := range profiledLayers {
			layers[l] += folded[l]
		}
		total += n
	}
	return plain, traced, layers, total, nil
}

// seconds converts a flag value in seconds to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// metric is one printed measurement with the number of samples behind it.
type metric struct {
	name   string
	unit   string
	value  float64
	n      int
	digits int // significant digits in the table; the JSON line keeps them all
}

// writeTable prints the metrics for people: name, value, unit, samples.
func writeTable(w io.Writer, ms []metric) {
	fmt.Fprintf(w, "%-34s %16s %-6s %s\n", "metric", "value", "unit", "n")
	for _, m := range ms {
		fmt.Fprintf(w, "%-34s %16.*g %-6s %d\n", m.name, m.digits, m.value, m.unit, m.n)
	}
}

// resultLine renders the machine-readable last line.
func resultLine(r *runner, ms []metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range ms {
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
