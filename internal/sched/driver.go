//go:build go1.23

// The driver needs Go 1.23's iter.Pull. The build line raises this file's
// language version alone, so go.mod keeps go 1.22, which the separately
// built benchmark module pins too.

package sched

import "iter"

// Go registers a task running body(key) and returns its key (1, 2, ... in
// registration order, the first starting the run). The body starts when
// the driver first resumes the task, and the task exits when it returns.
// Tasks are registered before Run or by the running task, so keys are
// deterministic.
func (c *Controller) Go(body func(key int)) int {
	t := &task{key: len(c.tasks) + 1}
	t.next, _ = iter.Pull(func(yield func(int) bool) {
		t.yield = yield
		body(t.key)
	})
	c.tasks = append(c.tasks, t)
	c.ready = append(c.ready, t.key) // the largest key so far
	return t.key
}

// Run drives the registered tasks on the calling goroutine until every
// one has finished. A resumed task runs until it yields the key of the
// task to resume next or its body returns, and then exit picks the next.
// Once the run is torn down, or a panic escaped a body (Run tears the run
// down and lets the panic continue), Run resumes every unfinished task in
// key order, those never started and those spawned meanwhile included,
// and each one unwinds.
func (c *Controller) Run() {
	finished := false
	defer func() {
		if !finished {
			c.teardown(downAbort)
		}
		for i := 0; i < len(c.tasks); i++ {
			c.tasks[i].next() // a no-op for a finished task
		}
	}()
	if len(c.tasks) > 0 {
		for t := c.tasks[0]; t != nil; {
			if k, _ := t.next(); k != 0 {
				t = c.tasks[k-1]
			} else {
				t = c.exit(t)
			}
		}
	}
	finished = true
}
