package obs

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/comm"
)

// MsgSizeBuckets are the fixed histogram bounds (bytes) for wire
// message sizes — the Figure 10 axis, live.
var MsgSizeBuckets = []float64{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// CommTracer adapts the comm layer's wire-level message stream into the
// telemetry layer: each comm.TraceEvent becomes a Perfetto flow event
// between the source and destination rank tracks (virtual-time domain)
// and charges the per-op counters and the message-size histogram.
// Install it via comm.Options.Tracer; Record is called from many rank
// goroutines concurrently and is safe for concurrent use.
type CommTracer struct {
	trace *Tracer // nil: no flow events
	msgs  *Counter
	bytes *Counter
	sizes *Histogram
}

// NewCommTracer builds the adapter. Either argument may be nil: trace
// nil records metrics only, reg nil records flows only.
func NewCommTracer(trace *Tracer, reg *Registry) *CommTracer {
	c := &CommTracer{trace: trace}
	if reg != nil {
		c.msgs = reg.Counter("comm.msgs")
		c.bytes = reg.Counter("comm.bytes")
		c.sizes = reg.Histogram("comm.msg_bytes", MsgSizeBuckets)
	}
	return c
}

// Record implements comm.Tracer.
func (c *CommTracer) Record(e comm.TraceEvent) {
	c.trace.AddFlow(Flow{
		Src: e.Src, Dst: e.Dst, Tag: e.Tag, Bytes: e.Bytes,
		SendVT: e.SendVT, ArriveVT: e.ArriveVT, Site: e.Site, Hops: e.Hops,
	})
	if c.msgs != nil {
		c.msgs.Add(1)
		c.bytes.Add(e.Bytes)
		c.sizes.Observe(float64(e.Bytes))
	}
}

// FlowSummary aggregates a message trace — the "size, frequency, average
// distance" dataset the paper's Section VI wants for network models.
type FlowSummary struct {
	Messages, Bytes     int64
	MeanBytes, MeanHops float64
	MaxHops             int
}

// SummarizeFlows computes aggregate statistics over flows.
func SummarizeFlows(flows []Flow) FlowSummary {
	var s FlowSummary
	var hops int64
	for _, f := range flows {
		s.Messages++
		s.Bytes += f.Bytes
		hops += int64(f.Hops)
		s.MaxHops = max(s.MaxHops, f.Hops)
	}
	if s.Messages > 0 {
		s.MeanBytes = float64(s.Bytes) / float64(s.Messages)
		s.MeanHops = float64(hops) / float64(s.Messages)
	}
	return s
}

// WriteFlowsCSV dumps flows as CSV, one row per message ordered by send
// time (stable on source rank for equal times) — the input format for
// offline network simulators.
func WriteFlowsCSV(w io.Writer, flows []Flow) error {
	flows = append([]Flow(nil), flows...)
	sort.SliceStable(flows, func(i, j int) bool {
		a, b := flows[i], flows[j]
		return a.SendVT < b.SendVT || a.SendVT == b.SendVT && a.Src < b.Src
	})
	if _, err := fmt.Fprintln(w, "src,dst,tag,bytes,hops,send_vt,arrive_vt,site"); err != nil {
		return err
	}
	for _, f := range flows {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%.9f,%.9f,%s\n",
			f.Src, f.Dst, f.Tag, f.Bytes, f.Hops, f.SendVT, f.ArriveVT, f.Site); err != nil {
			return err
		}
	}
	return nil
}
