package broker

import (
	"fmt"
	"reflect"
	"testing"

	"nostop/internal/rng"
	"nostop/internal/sim"
)

// refBroker is the executable specification of one tenant topic with one
// producer and one consumer group: a stored end offset per partition,
// advanced by the per-partition round-robin loop the producer used before
// partition ends were derived in closed form, and a naive rescan-everything
// fetch. Unbounded payload history stands in for the sample ring.
type refBroker struct {
	parts, sampleCap    int
	next                int // producer rotation cursor
	end                 []int64
	sent                [][]Record // every payload record per partition, oldest first
	down                []bool
	position, committed []int64
	redelivered         int64
	acct                TenantAccount
}

func newRefBroker(parts, sampleCap int) *refBroker {
	return &refBroker{
		parts: parts, sampleCap: sampleCap,
		end: make([]int64, parts), sent: make([][]Record, parts), down: make([]bool, parts),
		position: make([]int64, parts), committed: make([]int64, parts),
	}
}

func (m *refBroker) sendCount(n int64) {
	if n <= 0 {
		return
	}
	parts := int64(m.parts)
	base, rem := n/parts, n%parts
	for i := int64(0); i < parts; i++ {
		cnt := base
		if i < rem {
			cnt++
		}
		m.end[(int64(m.next)+i)%parts] += cnt
	}
	m.next = int((int64(m.next) + rem) % parts)
	m.acct.Produced += n
}

func (m *refBroker) send(key, value string, t sim.Time) Record {
	i := m.next
	m.next = (m.next + 1) % m.parts
	rec := Record{Partition: i, Offset: m.end[i], Key: key, Value: value, Time: t}
	m.end[i]++
	m.sent[i] = append(m.sent[i], rec)
	m.acct.Produced++
	return rec
}

// retained returns the payload records the sample ring still holds.
func (m *refBroker) retained(i int) []Record {
	s := m.sent[i]
	if len(s) > m.sampleCap {
		s = s[len(s)-m.sampleCap:]
	}
	return s
}

func (m *refBroker) fetch(max int64) (int64, []Record, []OffsetRange) {
	var avail int64
	for i := range m.end {
		if !m.down[i] {
			avail += m.end[i] - m.position[i]
		}
	}
	want := avail
	if max > 0 && max < want {
		want = max
	}
	var consumed int64
	var recs []Record
	var ranges []OffsetRange
	for i := 0; i < m.parts && consumed < want; i++ {
		take := m.end[i] - m.position[i]
		if m.down[i] || take == 0 {
			continue
		}
		if take > want-consumed {
			take = want - consumed
		}
		from, to := m.position[i], m.position[i]+take
		for _, r := range m.retained(i) {
			if r.Offset >= from && r.Offset < to {
				recs = append(recs, r)
			}
		}
		ranges = append(ranges, OffsetRange{Partition: i, From: from, To: to})
		m.position[i] = to
		consumed += take
	}
	m.acct.Fetched += consumed
	return consumed, recs, ranges
}

func (m *refBroker) commit(ranges []OffsetRange) {
	for _, r := range ranges {
		if r.To > m.committed[r.Partition] {
			m.acct.Committed += r.To - m.committed[r.Partition]
			m.committed[r.Partition] = r.To
		}
	}
}

func (m *refBroker) rewind(i int) int64 {
	if i < 0 || i >= m.parts {
		return 0
	}
	delta := m.position[i] - m.committed[i]
	if delta <= 0 {
		return 0
	}
	m.position[i] = m.committed[i]
	m.redelivered += delta
	m.acct.Redelivered += delta
	return delta
}

func (m *refBroker) lags() (lag, committedLag int64) {
	for i, e := range m.end {
		lag += e - m.position[i]
		committedLag += e - m.committed[i]
	}
	return lag, committedLag
}

// appendCounter is a broker.Observer that counts append notifications.
type appendCounter struct {
	calls, records int64
}

func (c *appendCounter) OnAppend(_ string, n int64)            { c.calls++; c.records += n }
func (c *appendCounter) OnFetch(string, int64, []OffsetRange)  {}
func (c *appendCounter) OnCommit(string, int64, []OffsetRange) {}
func (c *appendCounter) OnRewind(string, int, int64)           {}
func (c *appendCounter) OnOutage(string, int, bool)            {}

// TestBrokerMatchesReferenceModel drives a seeded random interleaving of
// every producer and consumer operation through the broker and the
// reference model in lockstep, and compares all observable state after
// every step: partition ends, each fetched range and payload, each Send
// offset, the group's offsets and lags, and the tenant account.
func TestBrokerMatchesReferenceModel(t *testing.T) {
	const steps = 4000
	for _, parts := range []int{1, 3, 8, 100} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("P%d/seed%d", parts, seed), func(t *testing.T) {
				runReferenceModel(t, parts, seed, steps)
			})
		}
	}
}

func runReferenceModel(t *testing.T, parts int, seed uint64, steps int) {
	const sampleCap = 4
	bus, err := NewBus([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	topic, err := bus.CreateTenantTopic("in", "acme", parts, sampleCap)
	if err != nil {
		t.Fatal(err)
	}
	obs := &appendCounter{}
	topic.SetObserver(obs)
	prod, _ := bus.NewProducer("in")
	group, _ := bus.NewConsumerGroup("in")
	model := newRefBroker(parts, sampleCap)
	r := rng.New(seed)
	var pending []*Chunk // fetched, not yet committed or released

	for step := 0; step < steps; step++ {
		var op string
		switch k := r.Intn(100); {
		case k < 25:
			n := int64(r.Intn(3*parts+3)) - 2 // includes no-op counts <= 0
			if r.Intn(10) == 0 {
				n = int64(r.Intn(50 * parts))
			}
			op = fmt.Sprintf("SendCount(%d)", n)
			prod.SendCount(n)
			model.sendCount(n)
		case k < 40:
			value := fmt.Sprintf("v%d", step)
			op = "Send"
			got := prod.Send("k", value, sim.Time(step))
			if want := model.send("k", value, sim.Time(step)); got != want {
				t.Fatalf("step %d: Send = %+v, model %+v", step, got, want)
			}
		case k < 60:
			max := int64(r.Intn(2*parts + 1))
			op = fmt.Sprintf("FetchChunk(%d)", max)
			c := group.FetchChunk(max)
			n, recs, ranges := model.fetch(max)
			if c == nil {
				if n != 0 {
					t.Fatalf("step %d: FetchChunk = nil, model fetched %d", step, n)
				}
				break
			}
			if c.Count != n || !sameRecords(c.Records, recs) || !reflect.DeepEqual(c.Ranges, ranges) {
				t.Fatalf("step %d: fetched %d %v %v, model %d %v %v",
					step, c.Count, c.Ranges, c.Records, n, ranges, recs)
			}
			pending = append(pending, c)
		case k < 75 && len(pending) > 0:
			i := r.Intn(len(pending)) // out-of-order commits included
			c := pending[i]
			pending = append(pending[:i], pending[i+1:]...)
			op = fmt.Sprintf("Commit(%v)", c.Ranges)
			group.Commit(c.Ranges)
			model.commit(c.Ranges)
			group.Release(c)
		case k < 80 && len(pending) > 0:
			op = "Release"
			group.Release(pending[0])
			pending = pending[1:]
		case k < 90:
			i, down := r.Intn(parts), r.Intn(2) == 0
			op = fmt.Sprintf("SetDown(%d, %v)", i, down)
			topic.Partitions[i].SetDown(down)
			model.down[i] = down
		default:
			i := r.Intn(parts+2) - 1 // includes out-of-range partitions
			op = fmt.Sprintf("Rewind(%d)", i)
			if got, want := group.Rewind(i), model.rewind(i); got != want {
				t.Fatalf("step %d: Rewind(%d) = %d, model %d", step, i, got, want)
			}
		}
		checkAgainstModel(t, step, op, bus, topic, group, obs, model)
	}
}

func checkAgainstModel(t *testing.T, step int, op string, bus *Bus, topic *Topic, group *ConsumerGroup, obs *appendCounter, m *refBroker) {
	t.Helper()
	for i, p := range topic.Partitions {
		if p.End() != m.end[i] {
			t.Fatalf("step %d after %s: partition %d End = %d, model %d", step, op, i, p.End(), m.end[i])
		}
		if group.Position(i) != m.position[i] || group.Committed(i) != m.committed[i] {
			t.Fatalf("step %d after %s: partition %d position/committed = %d/%d, model %d/%d",
				step, op, i, group.Position(i), group.Committed(i), m.position[i], m.committed[i])
		}
	}
	lag, committedLag := m.lags()
	if group.Lag() != lag || group.CommittedLag() != committedLag {
		t.Fatalf("step %d after %s: Lag/CommittedLag = %d/%d, model %d/%d",
			step, op, group.Lag(), group.CommittedLag(), lag, committedLag)
	}
	if group.FullyCommitted() != (committedLag == 0) || group.Redelivered() != m.redelivered {
		t.Fatalf("step %d after %s: FullyCommitted/Redelivered = %v/%d, model %v/%d",
			step, op, group.FullyCommitted(), group.Redelivered(), committedLag == 0, m.redelivered)
	}
	acct, want := bus.TenantAccount("acme"), m.acct
	want.Tenant = "acme"
	if *acct != want {
		t.Fatalf("step %d after %s: TenantAccount = %+v, model %+v", step, op, *acct, want)
	}
	if acct.Lag() != lag || acct.CommittedLag() != committedLag {
		t.Fatalf("step %d after %s: account Lag/CommittedLag = %d/%d, model %d/%d",
			step, op, acct.Lag(), acct.CommittedLag(), lag, committedLag)
	}
	if obs.records != m.acct.Produced {
		t.Fatalf("step %d after %s: OnAppend reported %d records, model produced %d", step, op, obs.records, m.acct.Produced)
	}
}

// sameRecords compares fetched payloads, treating nil and empty alike.
func sameRecords(got, want []Record) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// One produce call is one append notification, whatever the partition
// count: SendCount's cost must not grow with P.
func TestSendCountNotifiesOnce(t *testing.T) {
	for _, parts := range []int{1, 8, 100, 1000} {
		bus, _ := NewBus([]int{1, 2})
		topic, _ := bus.CreateTopic("in", parts, 0)
		obs := &appendCounter{}
		topic.SetObserver(obs)
		prod, _ := bus.NewProducer("in")
		for _, n := range []int64{1, int64(parts) + 1, 2 * int64(parts), 3*int64(parts) - 1} {
			before := *obs
			prod.SendCount(n)
			if calls, records := obs.calls-before.calls, obs.records-before.records; calls != 1 || records != n {
				t.Fatalf("P=%d: SendCount(%d) fired %d OnAppend for %d records, want 1 for %d",
					parts, n, calls, records, n)
			}
		}
		before := *obs
		prod.SendCount(0)
		prod.Send("k", "v", 0)
		if calls, records := obs.calls-before.calls, obs.records-before.records; calls != 1 || records != 1 {
			t.Fatalf("P=%d: SendCount(0)+Send fired %d OnAppend for %d records, want 1 for 1", parts, calls, records)
		}
	}
}

var sinkEnd int64

// BenchmarkSendCount times one producer tick at several partition counts;
// per-partition work on the produce path shows up as ns/op growing with P.
func BenchmarkSendCount(b *testing.B) {
	for _, parts := range []int{8, 100, 1000} {
		b.Run(fmt.Sprintf("P%d", parts), func(b *testing.B) {
			bus, _ := NewBus([]int{1, 2, 3, 4})
			topic, _ := bus.CreateTopic("in", parts, 0)
			topic.SetObserver(&appendCounter{})
			prod, _ := bus.NewProducer("in")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prod.SendCount(int64(1000 + i%7))
			}
			b.StopTimer()
			sinkEnd = topic.Partitions[parts-1].End()
		})
	}
}
