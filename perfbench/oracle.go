package main

import "repro/internal/stream"

// windowCheck is the client-side correctness oracle for one served
// recording. A window passes when it arrives in order with the class and
// event count of the standalone stream.Predict reference for the same
// recording, options and tier. Server counters are not consulted: they
// may lag the results they describe.
type windowCheck struct {
	ref  []stream.Result
	next int
	ok   int // windows that arrived in order and matched
	bad  int // results that arrived out of order, repeated or unknown
}

func (c *windowCheck) observe(res stream.Result) {
	k := res.Window
	if k != c.next || k >= len(c.ref) {
		c.bad++
	} else if res.Class == c.ref[k].Class && res.Events == c.ref[k].Events {
		c.ok++
	}
	c.next = k + 1
}

// failed returns how many of the recording's windows failed: missing,
// out of order, repeated or misclassified ones, or every window when the
// session errored or the server declared a different window count.
func (c *windowCheck) failed(n int, err error) int {
	if err != nil || n != len(c.ref) {
		return len(c.ref)
	}
	return max(len(c.ref)-c.ok, c.bad)
}
