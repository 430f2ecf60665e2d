package main

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/rspq"
)

// checker is the correctness gate of one run. Every answer the program
// under test gives is an attempted op; an op fails when its witness
// does not verify, its Found bit disagrees with the oracle, the
// transport reports a non-2xx or a timeout. All checking happens
// outside the timed segments.
type checker struct {
	attempted, failed int
	opFailed          bool // the op begun last has already been counted as failed
	oracleChecked     int  // Found bits cross-checked against the oracle
	oracleUnresolved  int  // deferred exponential checks cut off by the budget
	messages          []string
	deferred          []deferredCheck
}

// deferredCheck is a "no simple path" claim for which an L-labeled walk
// exists and the language is not subword-closed: only the exponential
// baseline can settle it, so it runs once the timed rounds are over, on
// a copy of the graph as it was when the claim was made.
type deferredCheck struct {
	g    edgeList
	s    *rspq.Solver
	x, y int
	what string
	// claimedFound is the answer under test: an exists-only "found"
	// carries no witness, so it too can need the baseline.
	claimedFound bool
}

// op begins the checking of one more op; a failure found before the
// next call counts against it, once.
func (c *checker) op() {
	c.attempted++
	c.opFailed = false
}

func (c *checker) fail(format string, a ...any) {
	if !c.opFailed {
		c.failed++
		c.opFailed = true
	}
	if len(c.messages) < 8 {
		c.messages = append(c.messages, fmt.Sprintf(format, a...))
	}
}

// witness checks a full answer: a Found result must carry a simple,
// L-labeled path of existing edges from x to y.
func (c *checker) witness(res rspq.Result, g *graph.Graph, s *rspq.Solver, x, y int, what string) {
	if !rspq.VerifyWitness(res, g, s.Min, x, y) {
		c.fail("%s: invalid witness for (%d,%d)", what, x, y)
	}
}

// crossCheck settles the Found bit of a sampled op against ground truth
// computed independently of the path under test. A verified witness
// proves Found; the absence of any L-labeled walk proves not-Found; for
// subword-closed languages a walk implies a simple path. What remains —
// a walk exists, the language is not subword-closed, the claim is
// not-Found or carries no witness — is settled by the bench-side Solver
// when it produces a verifiable witness and deferred to rspq.Baseline
// otherwise. snapshot returns the graph's current edge list and is only
// called for a deferred check.
func (c *checker) crossCheck(found, witnessed bool, g *graph.Graph, s *rspq.Solver, x, y int, what string, snapshot func() edgeList) {
	c.oracleChecked++
	if found && witnessed {
		return // VerifyWitness already ran on it
	}
	if !rspq.ExistsWalk(g, s.Min, x, y) {
		if found {
			c.fail("%s: (%d,%d) answered found, no L-labeled walk exists", what, x, y)
		}
		return
	}
	if s.SubwordClosed {
		if !found {
			c.fail("%s: (%d,%d) answered not found, oracle walk exists (subword-closed)", what, x, y)
		}
		return
	}
	if ref := s.Solve(g, x, y); ref.Found && rspq.VerifyWitness(ref, g, s.Min, x, y) {
		if !found {
			c.fail("%s: (%d,%d) answered not found, oracle has a witness", what, x, y)
		}
		return
	}
	c.deferred = append(c.deferred, deferredCheck{snapshot(), s, x, y, what, found})
}

// deferredBudget bounds the wall time of the exponential checks.
const deferredBudget = 2 * time.Second

// settle runs the deferred baseline checks within deferredBudget. It is
// called once, after the last timed round; a check still running when
// the budget ends is abandoned (its goroutine dies with the process)
// and counted as unresolved, not failed.
func (c *checker) settle() {
	deadline := time.Now().Add(deferredBudget)
	for i, d := range c.deferred {
		left := time.Until(deadline)
		if left <= 0 {
			c.oracleUnresolved += len(c.deferred) - i
			break
		}
		done := make(chan bool, 1) // one send, never blocks the abandoned goroutine
		go func() {
			done <- rspq.Baseline(d.g.build(), d.s.Min, d.x, d.y, nil).Found
		}()
		select {
		case truth := <-done:
			if truth != d.claimedFound {
				c.opFailed = false // a deferred check belongs to an op of its own
				c.fail("%s: (%d,%d) answered found=%v, rspq.Baseline says %v", d.what, d.x, d.y, d.claimedFound, truth)
			}
		case <-time.After(left):
			c.oracleUnresolved += len(c.deferred) - i
			c.deferred = nil
			return
		}
	}
	c.deferred = nil
}
