package comm

import (
	"sync"
	"testing"
	"time"
)

// White-box tests of the mailbox, the correctness core of the transport.

// take is a blocking receive with no owning rank: no dead-rank checks, no
// pending requests and no CRC frames.
func (b *mailbox) take(src, tag int) *message {
	m, _ := b.takeDead(nil, src, tag)
	return m
}

// frame is a payload-only Frame for put.
func frame(src, tag int, data ...float64) *Frame {
	return &Frame{Src: src, Tag: tag, Data: data}
}

func TestMailboxFIFOPerSourceTag(t *testing.T) {
	b := newMailbox(0, nil)
	for i := 0; i < 5; i++ {
		b.put(frame(1, 7, float64(i)))
	}
	for i := 0; i < 5; i++ {
		m := b.take(1, 7)
		if m.data[0] != float64(i) {
			t.Fatalf("FIFO violated: got %v at position %d", m.data[0], i)
		}
	}
}

func TestMailboxSelectiveMatching(t *testing.T) {
	b := newMailbox(0, nil)
	b.put(frame(1, 1))
	b.put(frame(2, 1))
	b.put(frame(1, 2))
	if m := b.take(2, 1); m.src != 2 {
		t.Fatalf("matched wrong source %d", m.src)
	}
	if m := b.take(1, 2); m.tag != 2 {
		t.Fatalf("matched wrong tag %d", m.tag)
	}
	if m := b.take(AnySource, AnyTag); m.src != 1 || m.tag != 1 {
		t.Fatalf("wildcard matched (%d,%d)", m.src, m.tag)
	}
}

// TestMailboxTryTake matches without blocking: Test on a pending receive
// completes it only once a matching message is queued, and the message
// is consumed.
func TestMailboxTryTake(t *testing.T) {
	c, err := newComm(2, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &Rank{comm: c, id: 0, prof: newProfile(0)}
	b := c.boxes[0]
	var req Request
	r.IrecvInto(&req, 1, 3)
	if req.Test() {
		t.Fatal("Test on an empty box completed")
	}
	b.put(frame(1, 4))
	if req.Test() {
		t.Fatal("Test matched the wrong tag")
	}
	b.put(frame(1, 3, 8))
	if !req.Test() || req.msg.data[0] != 8 || req.Source() != 1 {
		t.Fatal("Test missed a queued message")
	}
	if len(b.queue) != 1 || b.queue[0].tag != 4 || len(b.pending) != 0 {
		t.Fatalf("queue %d pending %d after the match, want the tag-4 message only", len(b.queue), len(b.pending))
	}
}

func TestMailboxPeekDoesNotConsume(t *testing.T) {
	b := newMailbox(0, nil)
	b.put(frame(5, 9, 1))
	if m := b.peek(nil, 5, 9); m == nil || m.data[0] != 1 {
		t.Fatal("peek failed")
	}
	if len(b.queue) != 1 || b.take(5, 9).data[0] != 1 {
		t.Fatal("peek consumed the message")
	}
}

func TestMailboxBlockingTakeWakesOnPut(t *testing.T) {
	b := newMailbox(0, nil)
	done := make(chan *message, 1)
	go func() { done <- b.take(3, 3) }()
	time.Sleep(2 * time.Millisecond) // let the taker block
	b.put(frame(3, 3))
	select {
	case m := <-done:
		if m.src != 3 {
			t.Fatalf("woke with wrong message from %d", m.src)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("take never woke")
	}
}

func TestMailboxCloseUnblocksTakers(t *testing.T) {
	b := newMailbox(0, nil)
	var wg sync.WaitGroup
	panicked := make(chan bool, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panicked <- recover() == errAborted }()
			b.take(AnySource, AnyTag)
		}()
	}
	time.Sleep(2 * time.Millisecond)
	b.close()
	wg.Wait()
	for i := 0; i < 3; i++ {
		if !<-panicked {
			t.Fatal("blocked taker did not unwind with errAborted")
		}
	}
}

func TestMailboxPutAfterCloseDropped(t *testing.T) {
	b := newMailbox(0, nil)
	b.close()
	b.put(frame(0, 0)) // must not panic
	if len(b.queue) != 0 {
		t.Fatal("put on a closed box queued the message")
	}
	defer func() {
		if recover() != errAborted {
			t.Fatal("take on closed box must abort")
		}
	}()
	b.take(AnySource, AnyTag)
}

func TestMailboxConcurrentProducersConsumers(t *testing.T) {
	b := newMailbox(0, nil)
	const producers, per = 4, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.put(frame(src, 0, float64(i)))
			}
		}(p)
	}
	// Per-source FIFO must hold even under concurrency.
	next := make([]int, producers)
	for i := 0; i < producers*per; i++ {
		m := b.take(AnySource, 0)
		if int(m.data[0]) != next[m.src] {
			t.Fatalf("source %d out of order: got %v want %d", m.src, m.data[0], next[m.src])
		}
		next[m.src]++
	}
	wg.Wait()
}
