package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// declared reads the metric names and units BENCHMARK.json lists.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkNames requires the printed metrics to be exactly the declared ones,
// with the declared units, each name and unit within the grammar.
func checkNames(t *testing.T, ms []metric, want map[string]string) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range ms {
		if !nameRe.MatchString(m.name) || !unitRe.MatchString(m.unit) {
			t.Errorf("metric %q with unit %q breaks the name grammar", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %q printed twice", m.name)
		}
		seen[m.name] = true
		if u, ok := want[m.name]; !ok || u != m.unit {
			t.Errorf("metric %q (%s) is not declared with that unit in BENCHMARK.json", m.name, m.unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("metric %q is %v", m.name, m.value)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(seen), len(want))
	}
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and traced,
// and checks the outputs and the printed metric names.
func TestWorkloadsTiny(t *testing.T) {
	e2e, layers := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if !nameRe.MatchString(w.name) || w.why == "" {
				t.Fatalf("workload %q needs a grammatical name and a reason", w.name)
			}
			r := newRunner()
			d, ok := r.setup(w, 7, nil)
			if !ok || d <= 0 {
				t.Fatalf("setup failed: %v", r.errs)
			}
			r.jobs = r.jobs[:2]
			plain := r.pass(nil)
			checkNames(t, endToEnd([]float64{d.Seconds()}, plain), e2e)

			sp := &spans{}
			traced := r.pass(sp)
			checkNames(t, perLayer(r, plain, traced, sp, map[string]int64{"broker": 1}, 1), layers)
			if r.failed != 0 || r.attempted != 5 {
				t.Errorf("attempted %d, failed %d: %v", r.attempted, r.failed, r.errs)
			}
			if len(sp.durations("job")) != 2 || len(sp.durations("fleet.assemble")) != 2 {
				t.Errorf("traced pass recorded %d job and %d assembly spans, want 2 each",
					len(sp.durations("job")), len(sp.durations("fleet.assemble")))
			}
		})
	}
}

// TestRunPrintsResult drives the command end to end on one workload, untraced
// and traced, and reads its last line as a harness would.
func TestRunPrintsResult(t *testing.T) {
	e2e, layers := declared(t)
	for trace, want := range []map[string]string{e2e, layers} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "zoo-observed", "--seed", "3", "--seconds", "0",
			"--trace", strconv.Itoa(trace)}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < minSetups+1 {
			t.Errorf("trace %d: result %+v", trace, res)
		}
		var names []string
		for name, m := range res.Metrics {
			names = append(names, name)
			if want[name] != m.Unit || trace == 0 && m.Value <= 0 {
				t.Errorf("trace %d: %s = %v %s", trace, name, m.Value, m.Unit)
			}
		}
		sort.Strings(names)
		if len(names) != len(want) {
			t.Errorf("trace %d printed %v", trace, names)
		}
		if !strings.Contains(out.String(), "host numcpu=") || !strings.Contains(out.String(), " wall_per_cpu=") {
			t.Errorf("trace %d: no host stamp", trace)
		}
		// The real profile decodes, and observability shows on this workload.
		if trace == 1 && res.Metrics["metrics.self_pct"].Value <= 0 {
			t.Errorf("metrics.self_pct = %v", res.Metrics["metrics.self_pct"].Value)
		}
	}
}

// TestRunRejectsBadFlags: usage errors exit non-zero without a result.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-sweep", "--trace", "2"},
		{"--workload", "paper-sweep", "--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestSameSeedMismatchFails: a job whose output changes between executions
// counts as failed.
func TestSameSeedMismatchFails(t *testing.T) {
	calls := 0
	r := newRunner()
	r.jobs = []job{{label: "drifting", simHours: 1, exec: func(*spans, int) (func() (verdict, error), error) {
		calls++
		n := calls
		return func() (verdict, error) {
			var v verdict
			v.digest[0] = byte(n)
			return v, nil
		}, nil
	}}}
	r.pass(nil)
	r.pass(nil)
	if r.attempted != 2 || r.failed != 1 {
		t.Errorf("attempted %d, failed %d; want 2 and 1", r.attempted, r.failed)
	}
}

// TestCheckSteady covers the per-job output checks.
func TestCheckSteady(t *testing.T) {
	if checkSteady(3, 1, 2) != nil {
		t.Error("good output rejected")
	}
	for _, bad := range []struct {
		steady int
		delays []float64
	}{{0, []float64{1}}, {3, []float64{math.NaN()}}, {3, []float64{math.Inf(1)}}, {3, []float64{-1}}} {
		if checkSteady(bad.steady, bad.delays...) == nil {
			t.Errorf("accepted %d steady batches with delays %v", bad.steady, bad.delays)
		}
	}
}

// TestJobSeeds: the same benchmark seed gives the same distinct job seeds.
func TestJobSeeds(t *testing.T) {
	a, b := jobSeeds(1, "w", 16), jobSeeds(1, "w", 16)
	seen := map[uint64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different job seeds")
		}
		seen[a[i]] = true
	}
	if len(seen) != 16 {
		t.Error("job seeds repeat")
	}
	if jobSeeds(2, "w", 1)[0] == a[0] || jobSeeds(1, "v", 1)[0] == a[0] {
		t.Error("seed or salt does not change the job seeds")
	}
}

// TestLayerOf folds synthetic stacks, leaf first.
func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "nostop/internal/broker.(*Partition).appendCount",
			"nostop/internal/engine.(*Engine).producerTick"}, "broker"},
		{[]string{"math/rand.seedrand", "nostop/internal/rng.(*Stream).Split",
			"nostop/internal/ratetrace.(*UniformBand).RateAt"}, "rng"},
		{[]string{"nostop/internal/engine.(*Engine).Start.func1", "nostop/internal/sim.(*Clock).Step"}, "engine"},
		{[]string{"nostop/internal/sim/bench.BenchmarkStep"}, "sim"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"encoding/json.Marshal", "main.verifyFleet", "main.main"}, "runtime"},
		{nil, "runtime"},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, data []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func (p *pb) packed(num int, vs ...uint64) *pb {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	return p.bytes(num, q)
}

// TestFoldProfile decodes a hand-built profile that uses packed and unpacked
// repeated fields and an inlined frame, and charges its samples.
func TestFoldProfile(t *testing.T) {
	var prof pb
	for _, s := range []string{"", "samples", "count", "nostop/internal/broker.(*Partition).appendCount",
		"runtime.memmove", "runtime.gcBgMarkWorker"} {
		prof.bytes(6, []byte(s))
	}
	// Functions 1..3 name strings 3..5.
	for id := uint64(1); id <= 3; id++ {
		prof.bytes(5, (&pb{}).varint(1, id).varint(2, id+2).b)
	}
	// Location 1 inlines runtime.memmove into the broker function.
	prof.bytes(4, (&pb{}).varint(1, 1).
		bytes(4, (&pb{}).varint(1, 2).b).
		bytes(4, (&pb{}).varint(1, 1).b).b)
	prof.bytes(4, (&pb{}).varint(1, 2).bytes(4, (&pb{}).varint(1, 3).b).b)
	prof.bytes(2, (&pb{}).packed(1, 1).packed(2, 3, 30000000).b)
	prof.bytes(2, (&pb{}).varint(1, 2).varint(2, 2).varint(2, 20000000).b)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	layers, total, err := foldProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 || layers["broker"] != 3 || layers["runtime"] != 2 {
		t.Errorf("fold = %v of %d, want broker 3 and runtime 2 of 5", layers, total)
	}
	if _, _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded")
	}
}
