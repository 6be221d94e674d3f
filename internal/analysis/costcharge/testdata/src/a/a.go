// Corpus for the costcharge analyzer: interprocedural reachability from
// Task.Pure closures to obs/trace telemetry and to simulation charges, the
// observe-never-charge contract on Observe* functions, and duplicate charge
// statements. Every telemetry and charge operation here is reached THROUGH
// at least one helper call, so only a call-graph walk finds it.
package a

import "mllibstar/internal/obs"

// task mirrors engine.Task's memoized Pure field; the analyzer matches the
// field by name, not by the defining package.
type task struct {
	Pure func() float64
}

// SendPhase and WaitUntil are charge primitives declared elsewhere
// (bodyless, so the call graph resolves them as remote and classifies them
// by their unique names).
func SendPhase(dst int, bytes float64)
func WaitUntil(t float64)

// logSpan is a helper that records telemetry.
func logSpan() {
	obs.Active().Span("n", obs.PhaseCompute, 0, 1, "")
}

// helperChain adds a second hop so the witness chain in the diagnostic
// crosses two calls.
func helperChain() {
	logSpan()
}

func doSend() {
	SendPhase(1, 2048)
}

func waitHelper() {
	WaitUntil(10)
}

func pureWork() float64 {
	return 1 + 1
}

// The closure reaches obs only transitively (closure → helperChain →
// logSpan → obs.Span): no obs call is written in its body.
func pureObsViaHelper() task {
	return task{
		Pure: func() float64 { // want `Task\.Pure closure reaches obs/trace telemetry \(helperChain → logSpan`
			helperChain()
			return 1
		},
	}
}

// A Task.Pure body that consumes simulated bytes through a helper.
func pureCharges() task {
	return task{
		Pure: func() float64 { // want `Task\.Pure closure reaches a simulation charge \(doSend → SendPhase\)`
			doSend()
			return 0
		},
	}
}

// A Pure assigned after the task is built (the SVRG trainer's style).
func pureAssigned(t *task) {
	t.Pure = func() float64 { // want `Task\.Pure closure reaches a simulation charge \(waitHelper → WaitUntil\)`
		waitHelper()
		return 0
	}
}

// Observe* functions must never transitively consume simulated time.
func ObserveRound(n int) { // want `observe-path function ObserveRound transitively consumes simulated time or bytes \(waitHelper → WaitUntil\)`
	_ = n
	waitHelper()
}

// ObserveClean only records: no charge reachable, no finding.
func ObserveClean(n int) {
	logSpan()
	_ = n
}

// Two textually identical charge statements in one basic block account the
// same bytes twice; a different argument list is a different message.
func duplicateCharge() {
	SendPhase(3, 512)
	SendPhase(3, 512) // want `duplicate charge SendPhase\(3, 512\) in the same block accounts the same bytes/work twice`
	SendPhase(3, 1024)
}

// A broadcast loop charges once per iteration through a single statement —
// exactly once per message, not a duplicate.
func broadcastLoop() {
	for i := 0; i < 4; i++ {
		SendPhase(i, 256)
	}
}

// A Pure with no telemetry and no charges is the contract being protected:
// clean.
func cleanPure() task {
	return task{Pure: pureWork}
}

func cleanPureLiteral() task {
	return task{Pure: func() float64 { return pureWork() }}
}

// Telemetry on the simulation thread is fine.
func simThreadTelemetry() {
	helperChain()
}

// A scoped directive naming the analyzer suppresses the finding.
func suppressedPure(t *task) {
	t.Pure = func() float64 { //mlstar:nolint costcharge -- audited: the span marks the first attempt on purpose
		helperChain()
		return 0
	}
}
