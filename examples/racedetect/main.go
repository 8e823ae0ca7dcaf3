// Racedetect: using the reader/writer-set shadow memory (§4.2.1) directly
// from Go as a standalone dynamic race detector, the way SharC's runtime
// uses it. Three goroutines access a shared region; properly handed-off
// accesses stay silent, a deliberate unsynchronized write produces a
// conflict report in the paper's format.
package main

import (
	"fmt"
	"sync"

	"repro/internal/shadow"
	"repro/internal/token"
)

// The demo's access sites; a check names its site by index into sites.
const (
	wr1 uint32 = iota
	rd2
	wr3
	wr4
)

var sites = []shadow.Site{
	wr1: site("buf[i]", 10),
	rd2: site("buf[i]", 22),
	wr3: site("buf[0]", 31),
	wr4: site("buf[0]", 44),
}

func site(lv string, line int) shadow.Site {
	return shadow.Site{LValue: lv, Pos: token.Pos{File: "demo.c", Line: line, Col: 1}}
}

func main() {
	s := shadow.New(1<<16, sites)

	// Phase 1: thread 1 owns a buffer and fills it.
	for cell := int64(0); cell < 64; cell++ {
		if c := s.ChkWrite(1, cell, wr1); c != nil {
			fmt.Println(c.Error())
		}
	}
	fmt.Println("phase 1: thread 1 filled the buffer, no conflicts")

	// Phase 2: ownership handoff — the sharing cast clears the sets, and
	// thread 2 becomes the sole accessor.
	s.ClearRange(0, 64)
	clean := true
	for cell := int64(0); cell < 64; cell++ {
		if c := s.ChkRead(2, cell, rd2); c != nil {
			fmt.Println(c.Error())
			clean = false
		}
	}
	if clean {
		fmt.Println("phase 2: handoff to thread 2 (sets cleared), no conflicts")
	}

	// Phase 3: thread 3 races with thread 2 on the same granule.
	var wg sync.WaitGroup
	conflicts := make(chan *shadow.Conflict, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if c := s.ChkWrite(3, 0, wr3); c != nil {
			conflicts <- c
		}
	}()
	wg.Wait()
	close(conflicts)
	fmt.Println("phase 3: thread 3 writes while thread 2 is a reader:")
	for c := range conflicts {
		fmt.Println(c.Error())
	}

	// Thread exit clears a thread's bits: sequential reuse is no race.
	s.ClearThread(2)
	s.ClearThread(3)
	if c := s.ChkWrite(4, 0, wr4); c == nil {
		fmt.Println("phase 4: after both threads exited, thread 4 owns the granule")
	}
}
