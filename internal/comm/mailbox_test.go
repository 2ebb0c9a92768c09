package comm

import (
	"sync"
	"testing"
	"time"
)

// White-box tests of the mailbox, the correctness core of the transport.

func TestMailboxFIFOPerSourceTag(t *testing.T) {
	b := newMailbox(0, nil)
	for i := 0; i < 5; i++ {
		b.put(&message{src: 1, tag: 7, data: []float64{float64(i)}})
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
	b.put(&message{src: 1, tag: 1})
	b.put(&message{src: 2, tag: 1})
	b.put(&message{src: 1, tag: 2})
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

func TestMailboxTryTake(t *testing.T) {
	b := newMailbox(0, nil)
	if m := b.tryTake(AnySource, AnyTag); m != nil {
		t.Fatal("tryTake on empty box returned a message")
	}
	b.put(&message{src: 0, tag: 3})
	if m := b.tryTake(0, 4); m != nil {
		t.Fatal("tryTake matched wrong tag")
	}
	if m := b.tryTake(0, 3); m == nil {
		t.Fatal("tryTake missed a queued message")
	}
	if m := b.tryTake(0, 3); m != nil {
		t.Fatal("message not consumed")
	}
}

func TestMailboxPeekDoesNotConsume(t *testing.T) {
	b := newMailbox(0, nil)
	b.put(&message{src: 5, tag: 9, data: []float64{1}})
	if m := b.peek(5, 9, nil); m == nil || m.data[0] != 1 {
		t.Fatal("peek failed")
	}
	if m := b.tryTake(5, 9); m == nil {
		t.Fatal("peek consumed the message")
	}
}

func TestMailboxBlockingTakeWakesOnPut(t *testing.T) {
	b := newMailbox(0, nil)
	done := make(chan *message, 1)
	go func() { done <- b.take(3, 3) }()
	time.Sleep(2 * time.Millisecond) // let the taker block
	b.put(&message{src: 3, tag: 3})
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
	b.put(&message{src: 0, tag: 0}) // must not panic
	defer func() {
		if recover() != errAborted {
			t.Fatal("tryTake on closed box must abort")
		}
	}()
	b.tryTake(AnySource, AnyTag)
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
				b.put(&message{src: src, tag: 0, data: []float64{float64(i)}})
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
