package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sem"
)

// hostInfo is the measured ceiling of this host, taken in the same
// invocation as the kernel probes it bounds.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	SIMD       bool   `json:"sem_has_simd"`
	// GFlops is scalar multiply+add throughput of compiled Go on one
	// thread (no FMA, no vectors): the bound for the hand-written
	// kernels. The AVX2 assembly backend can exceed it.
	GFlops float64 `json:"host_gflops"`
	// TriadGBs is stream-triad bandwidth on one thread, counting three
	// arrays of TriadArrayBytes each (computed bytes).
	TriadGBs        float64 `json:"host_triad_gbs"`
	TriadArrayBytes int64   `json:"triad_array_bytes"`
	LLCBytes        int64   `json:"llc_bytes"`
	LoopbackRTTus   float64 `json:"host_loopback_rtt_us"`
	LoopbackBytes   int     `json:"loopback_bytes"`
}

func probeHost(msgBytes int) (hostInfo, error) {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		SIMD:       sem.HasSIMD(),
		GFlops:     peakGFlops(),
		LLCBytes:   llcBytes(),
	}
	h.TriadArrayBytes, h.TriadGBs = triad(h.LLCBytes)
	h.LoopbackBytes = msgBytes
	rtt, err := loopbackRTT(msgBytes)
	if err != nil {
		return h, fmt.Errorf("host probe: loopback: %w", err)
	}
	h.LoopbackRTTus = rtt * 1e6
	return h, nil
}

var flopSink float64

// peakGFlops runs twelve independent x = x*a + b chains, enough to
// cover the multiply and add latencies, and keeps the best of several
// passes: a bound is the most the host was seen to do.
func peakGFlops() float64 {
	const iters = 1 << 21
	a, b := 0.999999, 1e-6
	best := 0.0
	for pass := 0; pass < 7; pass++ {
		x0, x1, x2, x3, x4, x5 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5
		x6, x7, x8, x9, x10, x11 := 1.6, 1.7, 1.8, 1.9, 2.0, 2.1
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x0 = x0*a + b
			x1 = x1*a + b
			x2 = x2*a + b
			x3 = x3*a + b
			x4 = x4*a + b
			x5 = x5*a + b
			x6 = x6*a + b
			x7 = x7*a + b
			x8 = x8*a + b
			x9 = x9*a + b
			x10 = x10*a + b
			x11 = x11*a + b
		}
		el := time.Since(t0).Seconds()
		flopSink += x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9 + x10 + x11
		best = max(best, 24*float64(iters)/el/1e9)
	}
	return best
}

// llcBytes reads the size of the largest cache cpu0 reports; 32 MiB
// when the host does not say.
func llcBytes() int64 {
	best := int64(0)
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			best = max(best, v*mult)
		}
	}
	if best == 0 {
		return 32 << 20
	}
	return best
}

// maxTriadBytes caps one triad array; only the tests lower it.
var maxTriadBytes = int64(math.MaxInt64)

// triad times a[i] = b[i] + 3*c[i] over arrays of four times the
// last-level cache each (less only if free memory cannot hold them),
// and returns the array size used with the best bandwidth seen.
func triad(llc int64) (arrayBytes int64, gbs float64) {
	arrayBytes = min(4*llc, maxTriadBytes)
	var si syscall.Sysinfo_t
	if err := syscall.Sysinfo(&si); err == nil {
		free := int64(si.Freeram) * int64(si.Unit)
		arrayBytes = min(arrayBytes, free/6)
	}
	n := int(arrayBytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	for pass := 0; pass < 3; pass++ { // the first pass also faults a in
		t0 := time.Now()
		b, c := b[:len(a)], c[:len(a)]
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		el := time.Since(t0).Seconds()
		if pass > 0 {
			gbs = max(gbs, 3*float64(arrayBytes)/el/1e9)
		}
	}
	flopSink += a[n/2]
	return arrayBytes, gbs
}

// loopbackRTT is the median round trip of a size-byte ping-pong over a
// raw loopback TCP connection: what the kernel charges before any of
// the transport's own framing.
func loopbackRTT(size int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoErr <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, size)
		for {
			if _, err := io.ReadFull(conn, buf); err != nil {
				if err == io.EOF {
					err = nil
				}
				echoErr <- err
				return
			}
			if _, err := conn.Write(buf); err != nil {
				echoErr <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, size)
	const batch = 100
	samples := make([]float64, 0, 20)
	for s := 0; s <= cap(samples); s++ { // sample 0 warms the path up
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := conn.Write(buf); err != nil {
				conn.Close()
				return 0, err
			}
			if _, err := io.ReadFull(conn, buf); err != nil {
				conn.Close()
				return 0, err
			}
		}
		if s > 0 {
			samples = append(samples, time.Since(t0).Seconds()/batch)
		}
	}
	if err := conn.Close(); err != nil {
		return 0, err
	}
	if err := <-echoErr; err != nil {
		return 0, err
	}
	return median(samples), nil
}
