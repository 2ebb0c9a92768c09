package comm

// Message tracing. Section VI of the paper motivates collecting "size,
// frequency, average distance etc." of communication to build network
// models for system simulation; a Tracer receives every wire-level
// message (including the point-to-point rounds inside collectives) with
// its modeled send and arrival times, producing exactly that dataset.

// TraceEvent describes one message on the wire.
type TraceEvent struct {
	Src, Dst int
	Tag      int
	Bytes    int64
	Hops     int     // switch-hop distance under the processor grid
	SendVT   float64 // sender's virtual time at injection
	ArriveVT float64 // modeled arrival time at the destination
	Site     string  // sender's call-site label
}

// Tracer receives message events. Record is called from many rank
// goroutines concurrently and must be safe for concurrent use.
type Tracer interface {
	Record(TraceEvent)
}

// trace is the internal hook called on every wire message.
func (c *Comm) trace(src, dst, tag int, bytes int64, hops int, sendVT, arriveVT float64, site string) {
	if c.tracer == nil {
		return
	}
	c.tracer.Record(TraceEvent{
		Src: src, Dst: dst, Tag: tag, Bytes: bytes, Hops: hops,
		SendVT: sendVT, ArriveVT: arriveVT, Site: site,
	})
}
