package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"
	"time"

	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/experiments"
	"nostop/internal/fleet"
	"nostop/internal/metrics"
	"nostop/internal/tenant"
)

// A workload is one named set of inputs. plan builds, validates and expands
// the workload's spec from the benchmark seed; the program receives only the
// jobs it generates. One pass runs every job once, in order.
type workload struct {
	name string
	why  string
	plan func(seed uint64) ([]job, error)
}

// workloads lists the benchmark's workloads in the order the docs give them.
var workloads = []workload{
	{
		name: "paper-sweep",
		why: "the Fig 7 grid on the producer path: the rate trace and broker fan-out dominate, " +
			"so both halves of ROADMAP item 2 show here",
		plan: paperSweep,
	},
	{
		name: "tenants-shared",
		why: "32 apps on a 1000-node cluster with 100 partitions per topic: broker fan-out, " +
			"sim-kernel heap and the allocator dominate, the rate trace does not",
		plan: tenantsShared,
	},
	{
		name: "zoo-observed",
		why: "all five zoo controllers under the chaos plan with metrics and traces recorded and exported: " +
			"observability dominates and faults, retries and shedding run",
		plan: zooObserved,
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Sizes of one pass. A pass is the unit every exact-cost metric repeats
// over, so each holds enough seeds that delay_gain_x moves little between
// benchmark seeds. tenantSeeds is 34 so that three passes give the 100 jobs
// job_cpu_ms_p90 needs.
const (
	paperSeeds  = 32
	tenantSeeds = 34
	zooSeeds    = 16
	mixTenants  = 32
	mixNodes    = 1000
	mixCores    = 4
	mixParts    = 100
	mixHorizon  = 12 * time.Minute
	zooHorizon  = 40 * time.Minute
	zooWorkload = "logreg"
	traceDwell  = 5 * time.Second
	zooWarmup   = 0.5
	// staticController is the name fleet and tenant specs both give the
	// controller that holds the initial configuration.
	staticController = "static"
)

// paperSweep is the Fig 7 grid: every workload under static and nostop,
// with the default band trace, partitions and horizon.
func paperSweep(seed uint64) ([]job, error) {
	spec := fleet.Spec{
		Name:        "paper-sweep",
		Seeds:       jobSeeds(seed, "paper-sweep", paperSeeds),
		Workloads:   []string{"logreg", "linreg", "wordcount", "pageanalyze"},
		Controllers: []string{fleet.ControllerStatic, fleet.ControllerNoStop},
	}
	return fleetJobs(spec, false)
}

// zooObserved is the zoo lineup on logreg over the widened space under the
// chaos plan, each job with its own metrics registry and tracer.
func zooObserved(seed uint64) ([]job, error) {
	space, err := experiments.ZooSpace(zooWorkload)
	if err != nil {
		return nil, err
	}
	spec := fleet.Spec{
		Name:        "zoo-observed",
		Seeds:       jobSeeds(seed, "zoo-observed", zooSeeds),
		Workloads:   []string{zooWorkload},
		Controllers: experiments.ZooControllers(),
		Horizon:     fleet.Duration(zooHorizon),
		Warmup:      zooWarmup,
		Traces:      []fleet.TraceSpec{{Kind: "band", Period: fleet.Duration(traceDwell)}},
		Plans:       []fleet.NamedPlan{{Name: "chaos", Faults: experiments.ChaosPlan(zooHorizon)}},
		Space:       &space,
	}
	return fleetJobs(spec, true)
}

// tenantsShared runs the synthetic 32-tenant mix under the fair-share
// allocator, one mix run per seed.
func tenantsShared(seed uint64) ([]job, error) {
	mix := tenant.Synthetic(mixTenants, mixNodes, mixCores, tenant.AllocFairShare, tenant.Duration(mixHorizon))
	mix.Partitions = mixParts
	spec := fleet.Spec{
		Name:  "tenants-shared",
		Seeds: jobSeeds(seed, "tenants-shared", tenantSeeds),
		Mixes: []tenant.MixSpec{mix},
	}
	fjobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	jobs := make([]job, len(fjobs))
	for i, fj := range fjobs {
		jobs[i] = mixJob(fj)
	}
	return jobs, nil
}

// jobSeeds derives n job seeds from the benchmark seed with splitmix64,
// salted by the workload name so workloads draw unrelated seeds.
func jobSeeds(seed uint64, salt string, n int) []uint64 {
	h := fnv.New64a()
	io.WriteString(h, salt)
	x := seed ^ h.Sum64()
	out := make([]uint64, n)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		out[i] = z ^ (z >> 31)
	}
	return out
}

// A job is one call into the program. exec is what the benchmark times. It
// returns the job's output checks, which run after the clock stops; until
// then they hold the job's state reachable.
type job struct {
	label      string
	controller string  // the fleet controller, "" for a tenant mix
	simHours   float64 // application-hours the job simulates
	exec       func(sp *spans, call int) (verify func() (verdict, error), err error)
}

// verdict is a checked job output.
type verdict struct {
	digest        [sha256.Size]byte // of the byte-stable summary or report and exports
	static, tuned []float64         // steady mean end-to-end delay (s) of each static and each tuned app
	counts        counts
}

// counts are per-layer work counters read from the program's public
// accessors after a job.
type counts struct {
	events, batches, records, redelivered            int64
	reconfigs, retries, speculations, shed, injected int64
	traceEvents, traceDropped, traceBytes            int64
	allocRounds, preemptions, regrants               int64
}

// add accumulates o into c.
func (c *counts) add(o counts) {
	c.events += o.events
	c.batches += o.batches
	c.records += o.records
	c.redelivered += o.redelivered
	c.reconfigs += o.reconfigs
	c.retries += o.retries
	c.speculations += o.speculations
	c.shed += o.shed
	c.injected += o.injected
	c.traceEvents += o.traceEvents
	c.traceDropped += o.traceDropped
	c.traceBytes += o.traceBytes
	c.allocRounds += o.allocRounds
	c.preemptions += o.preemptions
	c.regrants += o.regrants
}

// engineCounts reads one engine's per-layer counters.
func engineCounts(eng *engine.Engine) counts {
	return counts{
		batches:      int64(len(eng.History())),
		records:      eng.TotalRecords(),
		redelivered:  eng.Redelivered(),
		reconfigs:    int64(eng.Reconfigs()),
		retries:      int64(eng.TaskRetries()),
		speculations: int64(eng.Speculations()),
		shed:         int64(eng.ShedEvents()),
	}
}

// fleetJobs expands a single-app spec into jobs run through
// fleet.ExecuteObserved. With observe set, each job records into a fresh
// metrics registry and Chrome tracer and exports both, as the scenario
// harness does.
func fleetJobs(spec fleet.Spec, observe bool) ([]job, error) {
	fjobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	jobs := make([]job, len(fjobs))
	for i, fj := range fjobs {
		jobs[i] = fleetJob(fj, observe)
	}
	return jobs, nil
}

// fleetJob wraps one single-app fleet job.
func fleetJob(fj fleet.Job, observe bool) job {
	return job{
		label:      fj.String(),
		controller: fj.Controller,
		simHours:   fj.Horizon.D().Hours(),
		exec: func(sp *spans, call int) (func() (verdict, error), error) {
			var obs fleet.Observe
			var reg *metrics.Registry
			if observe {
				reg = metrics.NewRegistry()
				obs = fleet.Observe{Metrics: reg, Trace: true}
			}
			start := time.Now()
			assembled := start
			if sp != nil {
				// The hook runs once the run is assembled, just before its clock
				// starts, which splits the call into its two halves.
				obs.Attach = func(*engine.Engine) error {
					assembled = time.Now()
					return nil
				}
			}
			sum, det, err := fleet.ExecuteObserved(fj, obs)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", fj, err)
			}
			ran := time.Now()
			sp.add("fleet.assemble", call, start, assembled)
			sp.add("sim.clock", call, assembled, ran)
			var trace bytes.Buffer
			var prom strings.Builder
			if observe {
				if err := det.Tracer.WriteJSON(&trace); err != nil {
					return nil, fmt.Errorf("%s: encoding trace: %w", fj, err)
				}
				traced := time.Now()
				sp.add("tracing.export", call, ran, traced)
				if err := reg.WritePrometheus(&prom); err != nil {
					return nil, fmt.Errorf("%s: encoding metrics: %w", fj, err)
				}
				sp.add("metrics.export", call, traced, time.Now())
			}
			return func() (verdict, error) {
				v, err := verifyFleet(fj, sum, det, trace.Bytes(), prom.String())
				if err != nil {
					return verdict{}, fmt.Errorf("%s: %w", fj, err)
				}
				return v, nil
			}, nil
		},
	}
}

// verifyFleet checks one single-app job and digests its outputs.
func verifyFleet(fj fleet.Job, sum fleet.Summary, det *fleet.RunDetail, trace []byte, prom string) (verdict, error) {
	if err := checkSteady(sum.SteadyBatches, sum.E2E.Mean, sum.E2E.P50, sum.E2E.P95, sum.E2E.P99,
		sum.E2E.Max, sum.ProcMean, sum.SchedMean); err != nil {
		return verdict{}, err
	}
	if fj.Space != nil {
		if err := checkInside(*fj.Space, fj.Controller, det.Engine); err != nil {
			return verdict{}, err
		}
	}
	enc, err := json.Marshal(sum)
	if err != nil {
		return verdict{}, err
	}
	h := sha256.New()
	h.Write(enc)
	h.Write(trace)
	io.WriteString(h, prom)

	v := verdict{counts: engineCounts(det.Engine)}
	h.Sum(v.digest[:0])
	v.counts.events = int64(det.Engine.Clock().Executed())
	if det.Injector != nil {
		v.counts.injected = int64(det.Injector.Injected())
	}
	if det.Tracer != nil {
		v.counts.traceEvents = int64(det.Tracer.Len())
		v.counts.traceDropped = int64(det.Tracer.Dropped())
		v.counts.traceBytes = int64(len(trace))
	}
	if fj.Controller == staticController {
		v.static = []float64{sum.E2E.Mean}
	} else {
		v.tuned = []float64{sum.E2E.Mean}
	}
	return v, nil
}

// mixJob wraps one multi-tenant fleet job, run through tenant.RunDetailed
// (the body of tenant.Run, which also hands back the live engines).
func mixJob(fj fleet.Job) job {
	mix := *fj.Mix
	return job{
		label:    fj.String(),
		simHours: fj.Horizon.D().Hours() * float64(len(mix.Tenants)),
		exec: func(sp *spans, call int) (func() (verdict, error), error) {
			var obs tenant.Observe
			start := time.Now()
			var assembled time.Time
			if sp != nil {
				// tenant.Observe has no attach hook; the first completed batch
				// closes the assembly span, a few simulated seconds late.
				obs.OnBatch = func(engine.BatchStats) {
					if assembled.IsZero() {
						assembled = time.Now()
					}
				}
			}
			rep, det, err := tenant.RunDetailed(mix, fj.Seed, obs)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", fj, err)
			}
			if !assembled.IsZero() {
				sp.add("fleet.assemble", call, start, assembled)
				sp.add("sim.clock", call, assembled, time.Now())
			}
			return func() (verdict, error) {
				v, err := verifyMix(rep, det)
				if err != nil {
					return verdict{}, fmt.Errorf("%s: %w", fj, err)
				}
				return v, nil
			}, nil
		},
	}
}

// verifyMix checks one tenant report and digests it.
func verifyMix(rep *tenant.Report, det *tenant.Detail) (verdict, error) {
	var v verdict
	var records int64
	for _, t := range rep.Tenants {
		if err := checkSteady(t.SteadyBatches, t.DelayMeanSec, t.DelayP95Sec, t.DelayMaxSec,
			t.ProcMeanSec, t.SchedMeanSec); err != nil {
			return verdict{}, fmt.Errorf("tenant %s: %w", t.Name, err)
		}
		records += t.Records
		if t.Controller == staticController {
			v.static = append(v.static, t.DelayMeanSec)
		} else {
			v.tuned = append(v.tuned, t.DelayMeanSec)
		}
		eng, ok := det.Engines[t.Name]
		if !ok {
			return verdict{}, fmt.Errorf("tenant %s has no engine", t.Name)
		}
		v.counts.add(engineCounts(eng))
		v.counts.events = int64(eng.Clock().Executed()) // one clock shared by every tenant
	}
	if records != rep.Cluster.TotalRecords {
		return verdict{}, fmt.Errorf("tenant records sum to %d, cluster total is %d", records, rep.Cluster.TotalRecords)
	}
	if !finite(rep.Cluster.MeanDelaySec) {
		return verdict{}, fmt.Errorf("cluster mean delay %v", rep.Cluster.MeanDelaySec)
	}
	enc, err := rep.Encode()
	if err != nil {
		return verdict{}, err
	}
	v.digest = sha256.Sum256(enc)
	v.counts.allocRounds = int64(rep.Alloc.Rounds)
	v.counts.preemptions = int64(rep.Alloc.Preemptions)
	v.counts.regrants = int64(rep.Alloc.Regrants)
	return v, nil
}

// checkSteady requires steady batches and finite, non-negative delays.
func checkSteady(steady int, delays ...float64) error {
	if steady <= 0 {
		return errors.New("no steady batches")
	}
	for _, d := range delays {
		if !finite(d) || d < 0 {
			return fmt.Errorf("delay %v is not a finite non-negative number", d)
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkInside requires the engine's final configuration to lie inside the
// space, by the rule of the controller conformance test: the structural half
// within the space's engine bounds for every controller, and the runtime
// knobs within their axes for the space-aware tuners (gp, rl), which set them
// through the space. Back-pressure's ingest cap is its PID output, not a
// point of the space, and may leave the ingest_cap axis.
func checkInside(space core.ConfigSpace, controller string, eng *engine.Engine) error {
	if cfg := eng.Config(); !space.EngineBounds().Contains(cfg) {
		return fmt.Errorf("final config %v outside the space", cfg)
	}
	if controller != fleet.ControllerGP && controller != fleet.ControllerRL {
		return nil
	}
	knobs := []struct {
		param string
		value float64
	}{
		{core.ParamIngestCap, eng.IngestCap()},
		{core.ParamRetryBudget, float64(eng.TaskMaxFailures())},
		{core.ParamSpecThreshold, eng.SpeculativeMultiplier()},
	}
	for _, k := range knobs {
		if a, ok := space.Axis(k.param); ok && (k.value < a.Min || k.value > a.Max) {
			return fmt.Errorf("final %s %v outside [%v, %v]", k.param, k.value, a.Min, a.Max)
		}
	}
	return nil
}
