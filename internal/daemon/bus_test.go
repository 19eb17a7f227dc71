package daemon

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventLogSeqsAreDenseFromOne(t *testing.T) {
	l := NewEventLog("job-1")
	for i := 0; i < 5; i++ {
		ev := l.Append(EventProgress, map[string]any{"i": i})
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d got seq %d", i, ev.Seq)
		}
	}
	evs, closed := l.Snapshot(0)
	if len(evs) != 5 || closed {
		t.Fatalf("Snapshot(0) = %d events, closed=%v; want 5, open", len(evs), closed)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) || ev.Job != "job-1" {
			t.Fatalf("event %d: seq=%d job=%q", i, ev.Seq, ev.Job)
		}
	}
}

func TestEventLogReplayFromSince(t *testing.T) {
	l := NewEventLog("j")
	for i := 0; i < 10; i++ {
		l.Append(EventProgress, nil)
	}
	evs, _ := l.Snapshot(7)
	if len(evs) != 3 || evs[0].Seq != 8 {
		t.Fatalf("Snapshot(7) = %d events starting at %d; want 3 starting at 8", len(evs), evs[0].Seq)
	}
	if evs, _ := l.Snapshot(10); len(evs) != 0 {
		t.Fatalf("Snapshot(10) = %d events; want none", len(evs))
	}
	if evs, _ := l.Snapshot(99); len(evs) != 0 {
		t.Fatalf("Snapshot(past end) = %d events; want none", len(evs))
	}
}

func TestEventLogNextBlocksUntilAppend(t *testing.T) {
	l := NewEventLog("j")
	got := make(chan []Event, 1)
	go func() {
		evs, _ := l.Next(0, nil)
		got <- evs
	}()
	time.Sleep(10 * time.Millisecond) // let the subscriber park
	l.Append(EventStarted, nil)
	select {
	case evs := <-got:
		if len(evs) != 1 || evs[0].Type != EventStarted {
			t.Fatalf("woke with %+v", evs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not wake on Append")
	}
}

func TestEventLogNextReturnsOnClose(t *testing.T) {
	l := NewEventLog("j")
	l.Append(EventStarted, nil)
	done := make(chan struct{})
	go func() {
		// Drained past the end of a closed log: returns immediately.
		if _, closed := l.Next(1, nil); !closed {
			t.Error("Next on closed log reported open")
		}
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not wake on Close")
	}
	if _, closed := l.Snapshot(0); !closed {
		t.Fatal("Snapshot after Close reported open")
	}
	l.Close() // idempotent
}

func TestEventLogNextHonorsDone(t *testing.T) {
	l := NewEventLog("j")
	cancel := make(chan struct{})
	got := make(chan bool, 1)
	go func() {
		_, closed := l.Next(0, cancel)
		got <- closed
	}()
	close(cancel)
	select {
	case closed := <-got:
		if closed {
			t.Fatal("done-fired Next reported closed")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not honor done")
	}
}

func TestEventLogConcurrentAppendersStayDense(t *testing.T) {
	l := NewEventLog("j")
	const per, workers = 50, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Append(EventProgress, map[string]any{"w": w})
			}
		}(w)
	}
	wg.Wait()
	evs, _ := l.Snapshot(0)
	if len(evs) != per*workers {
		t.Fatalf("got %d events, want %d", len(evs), per*workers)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("seq gap at %d: %d", i, ev.Seq)
		}
	}
}

func TestEventLogAppendAfterCloseIsDropped(t *testing.T) {
	l := NewEventLog("j")
	l.Append(EventStarted, nil)
	l.Close()
	l.Append(EventProgress, nil)
	if evs, _ := l.Snapshot(0); len(evs) != 1 {
		t.Fatalf("closed log grew to %d events", len(evs))
	}
}

func TestEventMarshalDataRoundTrips(t *testing.T) {
	l := NewEventLog("job-9")
	ev := l.Append(EventDone, map[string]any{"digest": "abc", "cells": 4})
	b := ev.MarshalData()
	s := string(b)
	for _, want := range []string{`"seq":1`, `"job":"job-9"`, `"type":"done"`, `"digest":"abc"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("frame %s missing %s", s, want)
		}
	}
}
