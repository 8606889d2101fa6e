// Package goleak seeds violations for the goroutine-leak analyzer:
// goroutines with no exit path and bare sends on unbuffered channels.
package goleak

// pollForever loops with no ctx reference and no channel operation;
// nothing external can ever stop it. The facts table marks it goUnsafe.
func pollForever() {
	n := 0
	for {
		n++
	}
}

// LaunchUnstoppable fires a named function nothing can stop.
func LaunchUnstoppable() {
	go pollForever() // want(goleak): goroutine pollForever loops with no exit path (no ctx reference, no channel operation); nothing can ever stop it
}

// LaunchLitUnstoppable is the same leak as a function literal.
func LaunchLitUnstoppable() {
	go func() { // want(goleak): goroutine loops with no exit path (no ctx reference, no channel operation); nothing can ever stop it
		for {
		}
	}()
}

// Produce sends on a local unbuffered channel outside a select: if the
// consumer returns early, the goroutine blocks on the send forever.
func Produce(vals []int) <-chan int {
	out := make(chan int)
	go func() {
		for _, v := range vals {
			out <- v // want(goleak): send on unbuffered channel "out" outside a select: an abandoned receiver strands this goroutine forever (buffer to maximum occupancy or select on a done signal)
		}
		close(out)
	}()
	return out
}
